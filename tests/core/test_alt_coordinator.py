"""Tests for the rejected threading-model-primary coordinator (§3.2)."""

from __future__ import annotations

import pytest

from repro.core.alt_coordinator import AltMode, ThreadingPrimaryCoordinator
from repro.core.binning import ProfilingGroup
from repro.graph import pipeline
from repro.perfmodel import laptop
from repro.runtime import (
    ElasticityConfig,
    ProcessingElement,
    QueuePlacement,
    RuntimeConfig,
)
from repro.runtime.executor import AdaptationExecutor


def _groups(*member_lists):
    return [
        ProfilingGroup(
            members=tuple(m), representative_metric=1000.0 / (gi + 1)
        )
        for gi, m in enumerate(member_lists)
    ]


class SyntheticDriver:
    def __init__(self, coordinator, throughput_of):
        self.c = coordinator
        self.f = throughput_of
        self.placement = QueuePlacement.empty()
        self.threads = coordinator.current_threads
        self.thread_history = []

    def run(self, periods):
        for _ in range(periods):
            observed = self.f(self.placement, self.threads)
            action = self.c.step(observed)
            if action.set_placement is not None:
                self.placement = action.set_placement
            if action.set_threads is not None:
                self.threads = action.set_threads
            self.thread_history.append(self.threads)
        return self


def make(groups, max_threads=16):
    return ThreadingPrimaryCoordinator(
        config=ElasticityConfig(),
        max_threads=max_threads,
        profile_provider=lambda: groups,
        seed=0,
    )


class TestFlow:
    def test_first_action_opens_outer_trial_and_inner_search(self):
        c = make(_groups([1, 2, 3, 4]))
        action = c.step(100.0)
        # The rejected design restarts the inner thread search for the
        # first trial placement.
        assert action.set_placement is not None
        assert action.set_threads is not None
        assert c.mode is AltMode.INNER_THREADS

    def test_reaches_stable(self):
        c = make(_groups([1, 2, 3, 4]))
        driver = SyntheticDriver(
            c,
            lambda p, t: 100.0 * (1 + len(p)) * (1 + min(t, len(p) + 1)),
        )
        driver.run(200)
        assert c.is_stable

    def test_inner_search_climbs_to_degradation(self):
        """The paper's objection: the inner loop repeatedly explores up
        to the point of degradation, holding many threads."""
        c = make(_groups([1, 2, 3, 4, 5, 6, 7, 8]), max_threads=32)
        driver = SyntheticDriver(
            c,
            lambda p, t: 100.0
            * (1 + len(p))
            * (1 + min(t, 4) - 0.2 * max(0, t - 4)),
        )
        driver.run(200)
        # The inner search visited thread counts well beyond the
        # optimum (4) at least once.
        assert max(driver.thread_history) >= 8

    def test_converges_on_scalable_workload(self):
        c = make(_groups([1, 2, 3, 4, 5, 6]), max_threads=8)
        driver = SyntheticDriver(
            c, lambda p, t: 100.0 * (1 + len(p)) * (1 + min(t, len(p)))
        )
        driver.run(300)
        assert c.is_stable
        assert len(driver.placement) >= 3


class TestWithExecutor:
    def test_drives_simulated_pe(self, small_machine):
        graph = pipeline(16, cost_flops=5000.0, payload_bytes=128)
        config = RuntimeConfig(cores=8, seed=1)
        pe = ProcessingElement(graph, small_machine, config)
        manual = pe.true_throughput()
        coordinator = ThreadingPrimaryCoordinator(
            config=config.elasticity,
            max_threads=8,
            profile_provider=pe.profiling_groups,
            seed=1,
        )
        executor = AdaptationExecutor(pe, coordinator=coordinator)
        result = executor.run(
            executor.periods_for(6000), stop_after_stable_periods=12
        )
        # The rejected design still works; it is just slower/noisier.
        assert result.converged_throughput > 1.3 * manual
