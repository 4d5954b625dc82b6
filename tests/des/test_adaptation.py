"""Tests for the DES-driven adaptation loop."""

from __future__ import annotations

import pytest

from repro.des import DesAdaptationRunner
from repro.graph import pipeline
from repro.perfmodel import laptop
from repro.runtime import ElasticityConfig, RuntimeConfig


@pytest.fixture(scope="module")
def result_and_manual():
    graph = pipeline(8, cost_flops=4000.0, payload_bytes=128)
    machine = laptop(4)
    config = RuntimeConfig(
        cores=4,
        seed=2,
        elasticity=ElasticityConfig(profiling_samples=400),
    )
    runner = DesAdaptationRunner(
        graph,
        machine,
        config,
        warmup_s=0.001,
        measure_s=0.004,
    )
    manual, _true = runner.measure()
    result = runner.run(max_periods=60)
    return result, manual


class TestDesAdaptation:
    def test_improves_over_manual(self, result_and_manual):
        result, manual = result_and_manual
        assert result.converged_throughput > 1.5 * manual

    def test_places_queues(self, result_and_manual):
        result, _ = result_and_manual
        assert result.final_placement.n_queues >= 1

    def test_threads_within_budget(self, result_and_manual):
        result, _ = result_and_manual
        assert 1 <= result.final_threads <= 4

    def test_trace_is_consistent(self, result_and_manual):
        result, _ = result_and_manual
        obs = result.trace.observations
        assert obs
        times = [o.time_s for o in obs]
        assert times == sorted(times)
        # Recorded configuration matches the change events.
        assert obs[-1].threads == result.final_threads
        assert obs[-1].n_queues == result.final_placement.n_queues


class TestDesWorkloadEvents:
    def test_graph_swap_applies_and_system_reacts(self):
        from repro.apps.workloads import scaled_workload
        from repro.des import DesAdaptationRunner
        from repro.graph import pipeline
        from repro.perfmodel import laptop
        from repro.runtime import RuntimeConfig

        graph = pipeline(6, cost_flops=3000.0, payload_bytes=128)
        heavier = scaled_workload(graph, 20.0)
        runner = DesAdaptationRunner(
            pipeline(6, cost_flops=3000.0, payload_bytes=128),
            laptop(4),
            RuntimeConfig(cores=4, seed=6),
            warmup_s=0.001,
            measure_s=0.003,
            workload_events=[(100.0, heavier)],
        )
        result = runner.run(max_periods=40, stop_after_stable_periods=None)
        assert runner.graph is heavier
        before = [
            o.true_throughput
            for o in result.trace.observations
            if o.time_s < 100
        ]
        after = [
            o.true_throughput
            for o in result.trace.observations
            if o.time_s > 105
        ]
        # 20x heavier operators -> clearly lower measured throughput.
        assert min(before) > max(after)


class TestExecutionProfiling:
    def test_adaptation_with_snapshot_profiler(self):
        """The full loop converges with metrics gathered by the paper's
        snapshot mechanism from actual execution (no cost-model oracle)."""
        from repro.des import DesAdaptationRunner
        from repro.graph import pipeline
        from repro.perfmodel import laptop
        from repro.runtime import RuntimeConfig

        graph = pipeline(8, cost_flops=4000.0, payload_bytes=128)
        runner = DesAdaptationRunner(
            graph,
            laptop(4),
            RuntimeConfig(cores=4, seed=8),
            warmup_s=0.001,
            measure_s=0.004,
            profile_from_execution=True,
        )
        manual, _true = runner.measure()
        result = runner.run(max_periods=50)
        assert result.converged_throughput > 1.4 * manual
