"""Tests for the benchmark's derived metrics and its output checks."""

from __future__ import annotations

import importlib.util
import os
import random
import sys
from types import SimpleNamespace

import pytest

from metrics import (
    Span,
    Tally,
    geomean,
    layer_totals,
    percentile,
    self_times,
    settling_periods,
)

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


def _warmstart_settling():
    """``_settling`` from benchmarks/test_warmstart.py, the reference
    definition of settling periods."""
    bench_dir = os.path.join(ROOT, "benchmarks")
    sys.path.insert(0, bench_dir)
    try:
        spec = importlib.util.spec_from_file_location(
            "_warmstart_reference", os.path.join(bench_dir, "test_warmstart.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(bench_dir)
    return module._settling


def _trace(values):
    return SimpleNamespace(
        observations=[SimpleNamespace(true_throughput=v) for v in values]
    )


# ----------------------------------------------------------------------
# settling
# ----------------------------------------------------------------------
def test_settling_matches_warmstart_reference():
    reference = _warmstart_settling()
    rng = random.Random(7)
    cases = [
        [100.0] * 10,
        [10.0, 50.0, 90.0, 100.0, 100.0, 100.0, 100.0],
        [100.0, 100.0, 40.0, 100.0, 100.0, 100.0, 100.0],
        [100.0, 100.0, 100.0, 100.0, 100.0, 130.0],
        [5.0],
        [1.0, 2.0],
    ]
    for _ in range(300):
        n = rng.randint(1, 40)
        level = rng.uniform(1e3, 1e6)
        cases.append(
            [level * rng.choice((1.0, 1.02, 0.97, 0.5, 1.3)) for _ in range(n)]
        )
    for values in cases:
        expected, _lost, _conv = reference(_trace(values), period_s=1.0)
        assert settling_periods(values) == expected, values


def test_settling_counts_periods_until_the_band_holds():
    # Enters the 5 % band at period 3 and stays: settles in 3.
    assert settling_periods([10.0, 60.0, 98.0, 100.0, 101.0, 100.0]) == 3
    # A late excursion resets settling to after it.
    assert settling_periods([100.0, 100.0, 80.0] + [100.0] * 5) == 4
    assert settling_periods([]) == 0


# ----------------------------------------------------------------------
# geometric mean, quantiles
# ----------------------------------------------------------------------
def test_geomean():
    assert geomean([4.0, 9.0]) == pytest.approx(6.0)
    assert geomean([5.0]) == pytest.approx(5.0)
    assert geomean([1e6, 1e-6, 3.0]) == pytest.approx(3.0 ** (1 / 3))
    assert geomean([2.0, 0.0]) == 0.0
    with pytest.raises(ValueError):
        geomean([])


def test_geomean_is_scale_equivariant():
    values = [448000.0, 462000.0, 1441000.0]
    assert geomean(v * 2 for v in values) == pytest.approx(
        2 * geomean(values)
    )


def test_percentile():
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([0.0, 10.0], 0.9) == pytest.approx(9.0)
    assert percentile([], 0.5) == 0.0


# ----------------------------------------------------------------------
# span self time
# ----------------------------------------------------------------------
def test_self_time_subtracts_direct_children_only():
    spans = [
        Span("outer", 0.0, 10.0),
        Span("mid", 1.0, 7.0, parent=0),
        Span("leaf", 2.0, 5.0, parent=1),
        Span("mid", 8.0, 9.5, parent=0),
    ]
    assert self_times(spans) == pytest.approx([2.5, 3.0, 3.0, 1.5])
    totals = layer_totals(spans)
    assert totals["mid"].calls == 2
    assert totals["mid"].total_s == pytest.approx(7.5)
    assert totals["mid"].self_s == pytest.approx(4.5)
    # Self times partition the top-level span's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_tracer_records_nested_spans_and_restores_originals():
    from repro.des import engine as des_engine
    from repro.des import kernel
    from repro.graph.topologies import pipeline
    from repro.perfmodel.machine import laptop
    from repro.runtime import regions
    from repro.runtime.queues import QueuePlacement
    from tracer import Tracer

    run_until = kernel.Simulator.run_until
    decompose = regions.decompose
    importers = [
        m
        for name, m in sys.modules.items()
        if name.startswith("repro") and getattr(m, "decompose", None) is decompose
    ]
    assert len(importers) > 1

    graph = pipeline(4, cost_flops=1000.0)
    with Tracer() as tracer:
        assert kernel.Simulator.run_until is not run_until
        assert all(m.decompose is not decompose for m in importers)
        engine = des_engine.DesEngine(
            graph, laptop(4), QueuePlacement.of([2]), 2
        )
        engine.run(warmup_s=0.0005, measure_s=0.001)
    assert kernel.Simulator.run_until is run_until
    assert all(m.decompose is decompose for m in importers)

    spans = tracer.finished_spans()
    by_name = layer_totals(spans)
    assert by_name["des.engine"].calls == 1
    assert by_name["des.engine.build"].calls == 2  # __init__ and start
    engine_idx = next(i for i, s in enumerate(spans) if s.name == "des.engine")
    kernel_spans = [s for s in spans if s.name == "des.kernel"]
    assert kernel_spans and all(s.parent == engine_idx for s in kernel_spans)
    assert tracer.counts["des.kernel.events"] == engine.sim.events_processed
    assert tracer.counts["obs.registry.incs"] == 0  # detached engine


def test_tracer_counts_calls_with_a_fake_clock():
    from repro.obs.registry import Counter
    from tracer import Tracer

    ticks = iter(range(100))
    with Tracer(
        spans=(("counter.value", "repro.obs.registry", "Counter.state"),),
        clock=lambda: float(next(ticks)),
    ) as tracer:
        c = Counter("x")
        c.inc()
        c.inc(3)
        c.state()
    assert tracer.counts["obs.registry.incs"] == 2
    assert tracer.finished_spans() == [Span("counter.value", 0.0, 1.0, -1)]


# ----------------------------------------------------------------------
# failure accounting and output checks
# ----------------------------------------------------------------------
def test_tally_counts_failed_periods_against_attempted():
    tally = Tally()
    tally.ok(10)
    tally.fail(1, "raised")
    assert (tally.attempted, tally.failed) == (11, 1)
    tally.reclassify(4, "outputs differ")
    assert (tally.attempted, tally.failed) == (11, 5)
    assert tally.failed_frac == pytest.approx(5 / 11)
    # Reclassifying never counts more failures than attempts.
    tally.reclassify(100, "deadlocked")
    assert tally.failed == tally.attempted
    assert tally.reasons == ["raised", "outputs differ", "deadlocked"]
    assert Tally().failed_frac == 1.0  # nothing attempted is no success


def _fake_unit(name, digests, raises=()):
    from workloads import Unit, UnitOutput

    calls = iter(range(100))

    def run(jobs, hook=None):
        i = next(calls)
        if i in raises:
            raise RuntimeError("worker died")
        out = UnitOutput(
            periods=5,
            throughputs=(1.0,) * 5,
            window_s=0.01,
            converged=(1.0,),
            final=(1, 1, ()),
            dropped=0.0,
            digest=digests[i % len(digests)],
        )
        return lambda: out

    return Unit(name=name, run=run)


def test_session_counts_output_mismatches_and_raises_as_failures():
    import run as bench

    workload = SimpleNamespace(jobs=1)
    session = bench.Session(
        workload,
        [_fake_unit("steady", ["a"]), _fake_unit("drifts", ["a", "b"], raises=(2,))],
        seed=3,
    )
    for rep in range(3):
        session.repetition(rep, jobs=1)
    tally = session.tally
    # steady: 3 x 5 ok.  drifts: rep 0 ok (reference), rep 1 differs
    # (5 failed), rep 2 raises (1 failed).
    assert tally.attempted == 15 + 10 + 1
    assert tally.failed == 5 + 1
    assert any("outputs differ" in r for r in tally.reasons)
    assert any("worker died" in r for r in tally.reasons)


def test_unit_order_is_a_seeded_permutation():
    import run as bench

    assert bench.unit_order(5, 11, 0) == bench.unit_order(5, 11, 0)
    assert sorted(bench.unit_order(5, 11, 3)) == list(range(5))
    orders = {tuple(bench.unit_order(5, seed, 0)) for seed in range(20)}
    assert len(orders) > 1


def test_pinned_environment_drops_inherited_variables(monkeypatch):
    import run as bench

    monkeypatch.setenv("REPRO_MEMO_DIR", "/nonexistent")
    monkeypatch.setenv("REPRO_WARM_START", "auto")
    monkeypatch.setenv("REPRO_SOMETHING_ELSE", "1")
    bench.pin_env()
    repro_env = {k: v for k, v in os.environ.items() if k.startswith("REPRO_")}
    assert repro_env == bench.PINNED_ENV
