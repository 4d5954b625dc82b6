"""Integration tests asserting the paper's headline claims end-to-end.

These are scaled-down versions of the benchmark experiments (smaller
graphs, fewer grid points) so they run in seconds under pytest; the full
grids live in ``benchmarks/``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps.workloads import phase_change
from repro.bench.harness import (
    compare,
    oracle_sweep,
    run_dynamic_only,
    run_manual,
    run_multi_level,
)
from repro.core.saso import analyze
from repro.graph import assign_costs, data_parallel, pipeline, skewed
from repro.perfmodel import xeon_176
from repro.runtime import ProcessingElement, RuntimeConfig
from repro.runtime.executor import AdaptationExecutor


class TestFig1Motivation:
    """The best configuration is neither all-manual nor all-dynamic,
    and the framework finds a competitive one automatically."""

    def test_interior_optimum_and_auto_competitiveness(self):
        graph = pipeline(100, cost_flops=100.0, payload_bytes=1024)
        machine = xeon_176().with_cores(16)
        rows = oracle_sweep(
            graph, machine, fractions=(0.0, 0.1, 0.2, 0.5, 1.0)
        )
        by_frac = {f: t for f, _n, t in rows}
        best = max(by_frac.values())
        assert best > 1.2 * by_frac[0.0]
        assert best > 1.2 * by_frac[1.0]

        auto = run_multi_level(
            graph, machine, RuntimeConfig(cores=16, seed=0)
        )
        # "reaches good performance with automatic adjustment"
        assert auto.throughput > 0.6 * best


class TestFig9Pipeline:
    def test_payload_trend(self):
        """Multi-level's edge over dynamic grows with tuple payload."""
        machine = xeon_176()
        gains = {}
        for payload in (128, 16384):
            graph = pipeline(100, payload_bytes=payload)
            c = compare(
                graph, machine, RuntimeConfig(cores=176, seed=0)
            )
            gains[payload] = c.multi_over_dynamic
        assert gains[16384] > gains[128]
        assert gains[16384] > 2.0

    def test_dynamic_ratio_decreases_with_payload(self):
        machine = xeon_176()
        ratios = {}
        for payload in (128, 16384):
            graph = pipeline(100, payload_bytes=payload)
            r = run_multi_level(
                graph, machine, RuntimeConfig(cores=176, seed=0)
            )
            ratios[payload] = r.dynamic_ratio
        assert ratios[16384] < ratios[128]

    def test_dynamic_only_loses_at_16k_payload(self):
        machine = xeon_176()
        graph = pipeline(100, payload_bytes=16384)
        manual = run_manual(graph, machine)
        dynamic = run_dynamic_only(
            graph, machine, RuntimeConfig(cores=176, seed=0)
        )
        assert dynamic.throughput < manual.throughput

    def test_multi_level_never_much_worse_than_manual(self):
        machine = xeon_176()
        graph = pipeline(100, payload_bytes=16384)
        multi = run_multi_level(
            graph, machine, RuntimeConfig(cores=176, seed=0)
        )
        manual = run_manual(graph, machine)
        assert multi.throughput > 0.9 * manual.throughput

    def test_skewed_distribution_also_gains(self):
        machine = xeon_176()
        graph = assign_costs(
            pipeline(100, payload_bytes=1024),
            skewed(),
            rng=np.random.default_rng(0),
        )
        c = compare(graph, machine, RuntimeConfig(cores=176, seed=0))
        assert c.multi_level_speedup > 1.5


class TestFig10DataParallel:
    def test_dynamic_can_lose_multi_does_not(self):
        machine = xeon_176()
        graph = data_parallel(50, cost_flops=100.0, payload_bytes=1024)
        c = compare(graph, machine, RuntimeConfig(cores=176, seed=0))
        # "sometimes thread count elasticity performs worse than manual"
        assert c.dynamic_speedup < 1.0
        # "multi-level is consistently equal or better than manual"
        assert c.multi_level_speedup >= 0.95


class TestFig13PhaseChange:
    def test_readapts_after_heavy_shift(self):
        workload = phase_change(
            n_operators=60, change_time_s=600.0, seed=0
        )
        machine = xeon_176().with_cores(88)
        pe = ProcessingElement(
            workload.initial, machine, RuntimeConfig(cores=88, seed=0)
        )
        executor = AdaptationExecutor(
            pe, workload_events=workload.events()
        )
        result = executor.run(
            executor.periods_for(3000), stop_after_stable_periods=None
        )
        trace = result.trace
        before = [o for o in trace.observations if o.time_s < 600]
        after = [o for o in trace.observations if o.time_s >= 900]
        # More work per tuple -> more threads after the change.
        assert after[-1].threads >= before[-1].threads
        # The system made configuration changes after the shift.
        changes_after = [
            c
            for c in trace.thread_changes + trace.placement_changes
            if c.time_s > 600
        ]
        assert changes_after


class TestSasoProperties:
    def test_multi_level_run_is_saso(self):
        graph = assign_costs(
            pipeline(100, payload_bytes=1024),
            skewed(),
            rng=np.random.default_rng(0),
        )
        machine = xeon_176().with_cores(88)
        result = run_multi_level(
            graph, machine, RuntimeConfig(cores=88, seed=0)
        )
        assert result.trace is not None
        reference = max(
            t
            for _f, _n, t in oracle_sweep(
                graph,
                machine,
                fractions=(0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0),
            )
        )
        report = analyze(result.trace, reference_throughput=reference)
        # Stability: no post-settling oscillation.
        assert report.stability_ok
        # Accuracy: within 2x of the static oracle.
        assert report.accuracy_ratio is not None
        assert report.accuracy_ratio > 0.5

    def test_run_to_run_variance_is_low(self):
        """§3.1.1: arbitrary group selection incurs little variance."""
        graph = pipeline(60, payload_bytes=1024)
        machine = xeon_176().with_cores(88)
        outcomes = [
            run_multi_level(
                graph, machine, RuntimeConfig(cores=88, seed=seed)
            ).throughput
            for seed in (1, 2, 3)
        ]
        assert max(outcomes) / min(outcomes) < 1.4


class TestPeriodInsensitivity:
    def test_5s_to_30s_periods_equivalent(self):
        """§3.1.1: periods of 5-30s show no significant impact."""
        from repro.runtime import ElasticityConfig

        graph = pipeline(60, payload_bytes=1024)
        machine = xeon_176().with_cores(88)
        outcomes = {}
        for period in (5.0, 30.0):
            config = RuntimeConfig(
                cores=88,
                seed=0,
                elasticity=ElasticityConfig(adaptation_period_s=period),
            )
            outcomes[period] = run_multi_level(
                graph, machine, config
            ).throughput
        assert outcomes[30.0] == pytest.approx(
            outcomes[5.0], rel=0.35
        )
