"""Per-layer metrics of a traced run.

Turns the tracer's spans and counts, plus the registry counters the
program exports, into the per-layer metrics BENCHMARK.json lists.
Each name is ``<layer>.<quantity>``; the layer → end-to-end metric →
workload map is in ``perfbench/README.md``.
"""

from __future__ import annotations

from typing import Dict, Iterable

from metrics import layer_totals, percentile

PER_LAYER_UNITS: Dict[str, str] = {
    "des.kernel.events": "count",
    "des.kernel.self_s": "s",
    "des.kernel.ns_per_event": "ns",
    "des.engine.runs": "count",
    "des.engine.build_s": "s",
    "des.offered_tuples": "count",
    "des.queue_pushes": "count",
    "des.wakeups": "count",
    "des.batch_flushes": "count",
    "des.fastforward.events_saved": "count",
    "des.fastforward.jumps": "count",
    "des.adaptation.periods": "count",
    "des.adaptation.step_ms_p50": "ms",
    "des.adaptation.step_ms_p90": "ms",
    "bench.cache.hits": "count",
    "bench.cache.misses": "count",
    "bench.cache.hit_ratio": "ratio",
    "bench.cache.lookup_s": "s",
    "core.coordinator.calls": "count",
    "core.coordinator.self_s": "s",
    "core.threading_model.calls": "count",
    "core.threading_model.self_s": "s",
    "core.profiler.calls": "count",
    "core.profiler.self_s": "s",
    "perfmodel.throughput.calls": "count",
    "perfmodel.throughput.self_s": "s",
    "runtime.regions.calls": "count",
    "runtime.regions.self_s": "s",
    "job.executor.periods": "count",
    "job.executor.step_ms_p50": "ms",
    "job.executor.step_ms_p90": "ms",
    "job.coordinator.self_s": "s",
    "runtime.pool.start_s": "s",
    "runtime.pool.submits": "count",
    "runtime.pool.submit_s": "s",
    "runtime.pool.recv_wait_s": "s",
    "scenarios.arrivals.self_s": "s",
    "scenarios.compile_s": "s",
    "obs.registry.incs": "count",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio",
}

# Layers whose spans come from the parent-side trace when the in-PE
# layers were traced separately (multi-PE at jobs=1 vs jobs=N).
PARENT_SIDE = ("job.", "runtime.pool.")


def per_layer(
    in_pe,
    parent_side,
    counted,
    outputs: Iterable,
    compile_s: float,
    traced_wall_s: float,
    untraced_wall_s: float,
) -> Dict[str, float]:
    """Per-layer metrics from the traced repetition(s).

    ``in_pe`` and ``parent_side`` are span-only :class:`~tracer.Tracer`
    objects (the same one for single-process workloads), ``counted``
    the count-only tracer of a separate repetition; ``outputs`` are the
    unit outputs of the ``in_pe`` repetition, whose registry counters
    are summed.
    """
    inner = layer_totals(in_pe.finished_spans())
    outer = layer_totals(parent_side.finished_spans())

    def totals(name: str):
        source = outer if name.startswith(PARENT_SIDE) else inner
        return source.get(name)

    def calls(name: str) -> float:
        t = totals(name)
        return float(t.calls) if t else 0.0

    def self_s(name: str) -> float:
        t = totals(name)
        return t.self_s if t else 0.0

    def total_s(name: str) -> float:
        t = totals(name)
        return t.total_s if t else 0.0

    def step_ms(name: str, q: float) -> float:
        t = totals(name)
        return percentile(t.durations, q) * 1e3 if t else 0.0

    registry: Dict[str, float] = {}
    for out in outputs:
        for key, value in out.counters:
            registry[key] = registry.get(key, 0.0) + value

    events = in_pe.counts.get("des.kernel.events", 0.0)
    hits = registry.get("bench.cache_hits", 0.0)
    misses = registry.get("bench.cache_misses", 0.0)
    lookups = hits + misses
    overhead = traced_wall_s - untraced_wall_s
    values = {
        "des.kernel.events": events,
        "des.kernel.self_s": self_s("des.kernel"),
        "des.kernel.ns_per_event": (
            self_s("des.kernel") / events * 1e9 if events else 0.0
        ),
        "des.engine.runs": calls("des.engine"),
        "des.engine.build_s": total_s("des.engine.build"),
        "des.offered_tuples": registry.get("des.offered_tuples", 0.0),
        "des.queue_pushes": registry.get("des.queue_pushes", 0.0),
        "des.wakeups": registry.get("des.wakeups", 0.0),
        "des.batch_flushes": registry.get("des.batch_flushes", 0.0),
        "des.fastforward.events_saved": in_pe.counts.get(
            "des.fastforward.events_saved", 0.0
        ),
        "des.fastforward.jumps": in_pe.counts.get(
            "des.fastforward.jumps", 0.0
        ),
        "des.adaptation.periods": calls("des.adaptation"),
        "des.adaptation.step_ms_p50": step_ms("des.adaptation", 0.5),
        "des.adaptation.step_ms_p90": step_ms("des.adaptation", 0.9),
        "bench.cache.hits": hits,
        "bench.cache.misses": misses,
        "bench.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "bench.cache.lookup_s": total_s("bench.cache"),
        "job.executor.periods": calls("job.executor"),
        "job.executor.step_ms_p50": step_ms("job.executor", 0.5),
        "job.executor.step_ms_p90": step_ms("job.executor", 0.9),
        "job.coordinator.self_s": self_s("job.coordinator"),
        "runtime.pool.start_s": total_s("runtime.pool.start"),
        "runtime.pool.submits": calls("runtime.pool.submit"),
        "runtime.pool.submit_s": total_s("runtime.pool.submit"),
        "runtime.pool.recv_wait_s": total_s("runtime.pool.recv"),
        "scenarios.arrivals.self_s": self_s("scenarios.arrivals"),
        "scenarios.compile_s": compile_s,
        "obs.registry.incs": counted.counts.get("obs.registry.incs", 0.0),
        "trace.overhead_s": overhead,
        "trace.overhead_frac": (
            overhead / untraced_wall_s if untraced_wall_s else 0.0
        ),
    }
    for layer in (
        "core.coordinator",
        "core.threading_model",
        "core.profiler",
        "perfmodel.throughput",
        "runtime.regions",
    ):
        values[f"{layer}.calls"] = calls(layer)
        values[f"{layer}.self_s"] = self_s(layer)
    return {name: values[name] for name in PER_LAYER_UNITS}
