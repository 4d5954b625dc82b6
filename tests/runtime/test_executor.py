"""Tests for the virtual-clock adaptation executor."""

from __future__ import annotations

import pytest

from repro.apps.workloads import scaled_workload
from repro.graph import pipeline
from repro.perfmodel import laptop
from repro.runtime import (
    ProcessingElement,
    RuntimeConfig,
    run_elastic,
)
from repro.runtime.executor import AdaptationExecutor


@pytest.fixture
def pe(chain10, small_machine, fast_config):
    return ProcessingElement(chain10, small_machine, fast_config)


class TestRun:
    def test_rejects_nonpositive_duration(self, pe):
        with pytest.raises(ValueError):
            AdaptationExecutor(pe).run(0)
        with pytest.raises(ValueError):
            run_elastic(pe, duration_s=0)

    def test_observation_cadence(self, pe):
        result = AdaptationExecutor(pe).run(
            20, stop_after_stable_periods=None
        )
        times = [o.time_s for o in result.trace.observations]
        assert times == [5.0 * i for i in range(1, 21)]

    def test_duration_converts_to_covering_periods(self, pe):
        ex = AdaptationExecutor(pe)
        assert ex.periods_for(100) == 20
        assert ex.periods_for(101) == 21
        assert len(run_elastic(pe, 101).trace.observations) == 21

    def test_improves_over_manual(self, pe):
        manual = pe.true_throughput()
        result = run_elastic(pe, 2000)
        assert result.converged_throughput > manual

    def test_trace_records_changes(self, pe):
        result = run_elastic(pe, 2000)
        assert result.trace.thread_changes
        assert result.trace.placement_changes

    def test_stop_after_stable(self, pe):
        ex = AdaptationExecutor(pe)
        result = ex.run(
            ex.periods_for(100_000), stop_after_stable_periods=5
        )
        assert result.trace.duration_s < 100_000
        assert ex.coordinator.is_stable

    def test_deterministic_given_seed(
        self, chain10, small_machine, fast_config
    ):
        def once():
            pe = ProcessingElement(chain10, small_machine, fast_config)
            return run_elastic(pe, 1000)

        a, b = once(), once()
        assert a.final_threads == b.final_threads
        assert a.final_n_queues == b.final_n_queues
        assert [o.throughput for o in a.trace.observations] == [
            o.throughput for o in b.trace.observations
        ]

    def test_run_elastic_wrapper(self, pe):
        result = run_elastic(pe, duration_s=500)
        assert result.trace.observations


class TestWorkloadEvents:
    def test_graph_swap_applied_at_event_time(
        self, chain10, small_machine, fast_config
    ):
        pe = ProcessingElement(chain10, small_machine, fast_config)
        heavier = scaled_workload(chain10, 50.0)
        ex = AdaptationExecutor(
            pe, workload_events=[(500.0, heavier)]
        )
        ex.run(ex.periods_for(600), stop_after_stable_periods=None)
        assert pe.graph is heavier

    def test_throughput_drops_after_heavier_workload(
        self, chain10, small_machine, fast_config
    ):
        pe = ProcessingElement(chain10, small_machine, fast_config)
        heavier = scaled_workload(chain10, 100.0)
        ex = AdaptationExecutor(pe, workload_events=[(300.0, heavier)])
        result = ex.run(
            ex.periods_for(400), stop_after_stable_periods=None
        )
        before = [
            o.true_throughput
            for o in result.trace.observations
            if o.time_s < 300
        ]
        after = [
            o.true_throughput
            for o in result.trace.observations
            if o.time_s > 305
        ]
        assert min(before) > max(after)

    def test_adapts_to_workload_change(
        self, chain10, small_machine, fast_config
    ):
        pe = ProcessingElement(chain10, small_machine, fast_config)
        heavier = scaled_workload(chain10, 100.0)
        ex = AdaptationExecutor(pe, workload_events=[(800.0, heavier)])
        result = ex.run(
            ex.periods_for(4000), stop_after_stable_periods=None
        )
        # Changes must occur after the workload swap (re-adaptation).
        changes_after = [
            c
            for c in result.trace.thread_changes
            + result.trace.placement_changes
            if c.time_s > 800.0
        ]
        assert changes_after
