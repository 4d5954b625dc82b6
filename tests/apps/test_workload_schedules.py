"""Tests for the diurnal and spike workload schedules."""

from __future__ import annotations

import pytest

from repro.apps import diurnal_cycle, spike
from repro.graph import pipeline
from repro.perfmodel import laptop
from repro.runtime import ProcessingElement, RuntimeConfig
from repro.runtime.executor import AdaptationExecutor


@pytest.fixture
def base():
    return pipeline(12, cost_flops=2000.0, payload_bytes=256)


class TestDiurnalCycle:
    def test_event_count(self, base):
        events = diurnal_cycle(
            base, period_s=1000.0, n_cycles=3, steps_per_cycle=4
        )
        assert len(events) == 12

    def test_times_monotone(self, base):
        events = diurnal_cycle(base, period_s=500.0, n_cycles=2)
        times = [t for t, _g in events]
        assert times == sorted(times)

    def test_load_oscillates(self, base):
        events = diurnal_cycle(
            base,
            period_s=1000.0,
            n_cycles=1,
            low_factor=0.2,
            high_factor=2.0,
            steps_per_cycle=4,
        )
        costs = [g.total_cost_flops() for _t, g in events]
        # Trough at phase 0, crest mid-cycle.
        assert costs[0] < costs[2]
        assert costs[2] > costs[3]

    def test_rejects_bad_params(self, base):
        with pytest.raises(ValueError):
            diurnal_cycle(base, period_s=0)
        with pytest.raises(ValueError):
            diurnal_cycle(base, steps_per_cycle=1)

    def test_system_follows_the_cycle(self, base, small_machine):
        """The elastic runtime re-adapts across load phases."""
        config = RuntimeConfig(cores=8, seed=4)
        pe = ProcessingElement(base, small_machine, config)
        events = diurnal_cycle(
            base,
            period_s=2000.0,
            n_cycles=1,
            low_factor=1.0,
            high_factor=30.0,
            steps_per_cycle=4,
        )
        executor = AdaptationExecutor(pe, workload_events=events)
        result = executor.run(
            executor.periods_for(4000), stop_after_stable_periods=None
        )
        changes = (
            result.trace.thread_changes
            + result.trace.placement_changes
        )
        # Adaptation activity continues after the first load change.
        assert any(c.time_s > 600 for c in changes)


class TestSpike:
    def test_two_events(self, base):
        events = spike(base, spike_time_s=100.0, spike_duration_s=50.0)
        assert len(events) == 2
        assert events[0][0] == 100.0
        assert events[1][0] == 150.0

    def test_returns_to_base_graph(self, base):
        events = spike(base, 100.0, 50.0, factor=5.0)
        assert events[1][1] is base
        assert events[0][1].total_cost_flops() > base.total_cost_flops()

    def test_rejects_bad_duration(self, base):
        with pytest.raises(ValueError):
            spike(base, 100.0, 0.0)
