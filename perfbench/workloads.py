"""The benchmark's four workloads.

Each workload is a list of *units* — zoo scenarios, replica points or
one perfmodel comparison — prepared once (scenario load and compile,
or graph build) and then run as a fresh user session each time: the
measurement memo is cleared before every unit, the disk tier is off
(``REPRO_MEMO_DIR`` unset) and warm start is off.  A unit's run ends
in a :class:`UnitOutput`, the simulated outcome the output
checks compare across repetitions; the caller's clock stops before
that output is summarized.

Why each workload exists (which layer it loads, which it bypasses) is
written down in ``perfbench/README.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench import cache
from repro.obs.hub import ObservabilityHub

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FirstPeriod(Exception):
    """Raised by the set-up probe's hook when the first period starts."""


@dataclass(frozen=True)
class UnitOutput:
    """Simulated outcome of one unit run.

    ``throughputs`` are the per-period true throughputs (the settling
    input), ``window_s`` the simulated length each period's
    throughput was measured over (the sink-tuple numerator), and
    ``converged`` the unit's converged throughput(s) — one value per
    scenario or point, several for a strategy comparison.
    """

    periods: int
    throughputs: Tuple[float, ...]
    window_s: float
    converged: Tuple[float, ...]
    final: Tuple
    dropped: float
    digest: str
    # Registry counters of the session (summed over PE scopes), for
    # the traced run's per-layer report.
    counters: Tuple[Tuple[str, float], ...] = ()

    @property
    def sink_tuples(self) -> float:
        return sum(self.throughputs) * self.window_s

    def check_key(self) -> Tuple:
        """What must repeat exactly across runs of the same unit."""
        return (self.digest, self.final, self.converged, self.dropped)


@dataclass(frozen=True)
class Unit:
    """One prepared scenario or point.

    ``run(jobs, hook)`` executes it in a fresh session and returns a
    function that summarizes the session into a :class:`UnitOutput`;
    the caller's clock stops before that summary is taken.  ``hook``,
    when given, is called when the first adaptation period is about to
    start.
    """

    name: str
    run: Callable[
        [int, Optional[Callable[[], None]]], Callable[[], UnitOutput]
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    # Worker-pool width of the timed runs.
    jobs: int
    # Builds the units; returns (units, seconds spent compiling
    # scenarios or building graphs).
    prepare: Callable[[], Tuple[List[Unit], float]]


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
# Counters the program already exports, reported per layer.
COUNTERS = (
    "des.offered_tuples",
    "des.queue_pushes",
    "des.wakeups",
    "des.batch_flushes",
    "bench.cache_hits",
    "bench.cache_misses",
)


def decision_digest(hub: ObservabilityHub) -> str:
    """blake2b over every field of every decision record, in order."""
    h = hashlib.blake2b(digest_size=16)
    for d in hub.decisions():
        h.update(
            json.dumps(d.to_dict(), sort_keys=True, default=repr).encode()
        )
        h.update(b"\n")
    return h.hexdigest()


def counter_sum(hub: ObservabilityHub, base: str) -> float:
    """Sum of a counter over the hub's registry, across ``pe.<name>``
    scopes (``pe.ingest.des.dropped_tuples`` counts as
    ``des.dropped_tuples``)."""
    suffix = "." + base
    return float(
        sum(
            m.value
            for m in hub.registry
            if m.name == base or m.name.endswith(suffix)
        )
    )


def deadlocked_cells() -> int:
    """Memoized measurements (this session's) that report a deadlock.

    Every measured DES period lands in the memo — including those
    simulated in pool workers, whose fresh cells the job executor
    installs parent-side — so scanning it covers both paths.
    """
    n = 0
    for value in cache.snapshot(limit=cache.MAX_ENTRIES).values():
        result = value[0] if isinstance(value, tuple) and value else value
        if getattr(result, "deadlocked", False):
            n += 1
    return n


def _hook_first_period(runner, hook: Optional[Callable[[], None]]) -> None:
    if hook is None:
        return
    step = runner.step_period

    def first(k):
        hook()
        runner.step_period = step
        return step(k)

    runner.step_period = first


def _true_throughputs(trace) -> Tuple[float, ...]:
    return tuple(o.true_throughput for o in trace.observations)


# ----------------------------------------------------------------------
# zoo scenarios on the DES backend
# ----------------------------------------------------------------------
def _compile(name: str, max_periods=None, stop_after="keep"):
    from repro import scenarios

    scenario = scenarios.load_scenario(
        os.path.join(REPO_ROOT, "scenarios", f"{name}.yaml")
    )
    run = scenario.run
    if max_periods is not None:
        run = replace(run, max_periods=max_periods)
    if stop_after != "keep":
        run = replace(run, stop_after_stable_periods=stop_after)
    return scenarios.compile_scenario(replace(scenario, run=run))


def _scenario_unit(name: str, compiled) -> Unit:
    from repro.scenarios.run import make_backend

    run_spec = compiled.scenario.run

    def run(jobs: int, hook=None) -> Callable[[], UnitOutput]:
        cache.clear()
        hub = ObservabilityHub()
        runner = make_backend(compiled, obs=hub, jobs=jobs, warm_start="off")
        _hook_first_period(runner, hook)
        result = runner.run(
            max_periods=run_spec.max_periods,
            stop_after_stable_periods=run_spec.stop_after_stable_periods,
        )
        return lambda: UnitOutput(
            periods=len(result.trace.observations),
            throughputs=_true_throughputs(result.trace),
            window_s=run_spec.measure_s,
            converged=(result.converged_throughput,),
            final=(result.final_threads, result.final_n_queues, ()),
            dropped=counter_sum(hub, "des.dropped_tuples"),
            digest=decision_digest(hub),
            counters=tuple((c, counter_sum(hub, c)) for c in COUNTERS),
        )

    return Unit(name=name, run=run)


def _scenarios(specs: Sequence[Tuple]) -> Callable[[], Tuple[List[Unit], float]]:
    def prepare():
        units, compile_s = [], 0.0
        for spec in specs:
            t0 = time.perf_counter()
            compiled = _compile(*spec)
            compile_s += time.perf_counter() - t0
            units.append(_scenario_unit(spec[0], compiled))
        return units, compile_s

    return prepare


# The warm-start bench horizons (benchmarks/test_warmstart.py): fig07
# keeps its zoo horizon of 160 periods with no early stop, the other
# two stop after 8 stable periods within 60.
SINGLE_PE_CLOSED = (
    ("fig07-pipeline-saturated", 160, None),
    ("skewed-cost-pipeline", 60, 8),
    ("tree-bushy", 60, 8),
)
# Zoo horizons.
OPEN_LOOP_VARYING = (
    ("flash-crowd-spike",),
    ("onoff-burst-overflow",),
    ("diurnal-poisson",),
)


# ----------------------------------------------------------------------
# multi-PE replica sweep (benchmarks/test_multi_pe_des.py topology)
# ----------------------------------------------------------------------
REPLICAS = (1, 2, 4, 6, 8)
SWEEP_CORES = 4
SWEEP_SEED = 21
SWEEP_MAX_PERIODS = 10
SWEEP_STOP_AFTER = 4
SWEEP_WARMUP_S = 0.001
SWEEP_MEASURE_S = 0.004


def _build_job(replicas: int):
    from repro.graph.builder import GraphBuilder
    from repro.job.graph import build_job_graph
    from repro.scenarios.schema import (
        PartitionSpec,
        PartitionStrategy,
        PeSpec,
    )

    b = GraphBuilder()
    src = b.add_source("src", cost_flops=50.0)
    work = b.add_operator("work", cost_flops=6000.0)
    snk = b.add_sink("snk", cost_flops=1500.0)
    b.chain(src, work, snk)
    pes = (
        PeSpec(name="ingest", operators=("src",)),
        PeSpec(name="worker", operators=("work",), replicas=replicas),
        PeSpec(name="sinkpe", operators=("snk",)),
    )
    return build_job_graph(
        b.build(), pes, PartitionSpec(strategy=PartitionStrategy.SHUFFLE)
    )


def _sweep_unit(replicas: int, job) -> Unit:
    from repro.job.executor import JobAdaptationRunner
    from repro.perfmodel.machine import laptop
    from repro.runtime.config import RuntimeConfig

    def run(jobs: int, hook=None) -> Callable[[], UnitOutput]:
        cache.clear()
        hub = ObservabilityHub()
        runner = JobAdaptationRunner(
            job,
            laptop(SWEEP_CORES),
            RuntimeConfig(seed=SWEEP_SEED),
            warmup_s=SWEEP_WARMUP_S,
            measure_s=SWEEP_MEASURE_S,
            obs=hub,
            jobs=jobs,
        )
        _hook_first_period(runner, hook)
        result = runner.run(
            max_periods=SWEEP_MAX_PERIODS,
            stop_after_stable_periods=SWEEP_STOP_AFTER,
        )
        return lambda: UnitOutput(
            periods=len(result.trace.observations),
            throughputs=_true_throughputs(result.trace),
            window_s=SWEEP_MEASURE_S,
            converged=(result.converged_throughput,),
            final=(
                result.final_threads,
                result.final_n_queues,
                tuple(sorted(result.final_replicas.items())),
            ),
            dropped=counter_sum(hub, "des.dropped_tuples"),
            digest=decision_digest(hub),
            counters=tuple((c, counter_sum(hub, c)) for c in COUNTERS),
        )

    return Unit(name=f"R={replicas}", run=run)


def _prepare_sweep():
    units, build_s = [], 0.0
    for replicas in REPLICAS:
        t0 = time.perf_counter()
        job = _build_job(replicas)
        build_s += time.perf_counter() - t0
        units.append(_sweep_unit(replicas, job))
    return units, build_s


# ----------------------------------------------------------------------
# perfmodel: fig15b PacketAnalysis at 8 sources
# ----------------------------------------------------------------------
PACKET_SOURCES = 8


def _prepare_packet():
    from repro.apps.packet_analysis import (
        build_packet_analysis,
        hand_optimized,
    )
    from repro.bench.harness import compare
    from repro.perfmodel.machine import xeon_176
    from repro.runtime.config import RuntimeConfig

    t0 = time.perf_counter()
    machine = xeon_176()
    graph = build_packet_analysis(PACKET_SOURCES)
    hand = hand_optimized(graph)
    # bench.figures.fig15b_packet_analysis's configuration (seed 0).
    config = RuntimeConfig(cores=machine.logical_cores, seed=0)
    build_s = time.perf_counter() - t0

    def run(jobs: int, hook=None) -> Callable[[], UnitOutput]:
        cache.clear()
        hub = ObservabilityHub()
        if hook is not None:
            hook()
        c = compare(
            graph,
            machine,
            config,
            hand=hand,
            workload=f"PacketAnalysis {PACKET_SOURCES}src",
            obs=hub,
        )
        trace = c.multi_level.trace
        strategies = (c.manual, c.dynamic, c.hand_optimized, c.multi_level)
        return lambda: UnitOutput(
            periods=len(trace.observations),
            throughputs=_true_throughputs(trace),
            window_s=config.elasticity.adaptation_period_s,
            converged=tuple(s.throughput for s in strategies),
            final=tuple((s.label, s.threads, s.n_queues) for s in strategies),
            dropped=0.0,
            digest=decision_digest(hub),
            counters=tuple((c, counter_sum(hub, c)) for c in COUNTERS),
        )

    return [Unit(name=f"packet-{PACKET_SOURCES}src", run=run)], build_s


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("single-pe-closed", 1, _scenarios(SINGLE_PE_CLOSED)),
        Workload("multi-pe-sweep", 2, _prepare_sweep),
        Workload("open-loop-varying", 1, _scenarios(OPEN_LOOP_VARYING)),
        Workload("perfmodel-large", 1, _prepare_packet),
    )
}
