"""Tests for the multi-level coordinator (Fig. 7).

The coordinator is tested both in isolation (against a synthetic
throughput function over (placement, threads) configurations) and via
short end-to-end runs on the performance-model substrate.
"""

from __future__ import annotations

from typing import Callable, List

import pytest

from repro.core import Mode, MultiLevelCoordinator
from repro.core.binning import ProfilingGroup
from repro.graph import pipeline
from repro.perfmodel import PerformanceModel, laptop
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
    """Drives a coordinator against f(placement, threads)."""

    def __init__(self, coordinator, throughput_of):
        self.c = coordinator
        self.f = throughput_of
        self.placement = QueuePlacement.empty()
        self.threads = coordinator.current_threads
        self.history: List[tuple] = []

    def run(self, periods):
        for _ in range(periods):
            observed = self.f(self.placement, self.threads)
            action = self.c.step(observed)
            if action.set_placement is not None:
                self.placement = action.set_placement
            if action.set_threads is not None:
                self.threads = action.set_threads
            self.history.append(
                (len(self.placement), self.threads, observed)
            )
        return self


def make_coordinator(groups, max_threads=16, **config_kw):
    config = ElasticityConfig(**config_kw)
    return MultiLevelCoordinator(
        config=config,
        max_threads=max_threads,
        profile_provider=lambda: groups,
        seed=0,
    )


class TestModeFlow:
    def test_starts_with_threading_model(self):
        """Fig. 7 init(): threadingModelElasticity = true first."""
        c = make_coordinator(_groups([1, 2, 3, 4]))
        action = c.step(100.0)
        assert c.mode is Mode.THREADING_MODEL
        assert action.set_placement is not None

    def test_switches_to_thread_count_after_phase(self):
        c = make_coordinator(_groups([1, 2]))
        driver = SyntheticDriver(
            c, lambda p, t: 100.0 * (1 + len(p)) * (1 + 0.5 * t)
        )
        driver.run(10)
        assert Mode.THREAD_COUNT.value in [m.value for m in c.mode_history()]

    def test_reaches_stable(self):
        c = make_coordinator(_groups([1, 2, 3, 4]), max_threads=8)
        driver = SyntheticDriver(
            c,
            lambda p, t: 100.0
            * (1 + len(p))
            * (1 + min(t, len(p) + 1) * 0.5),
        )
        driver.run(80)
        assert c.is_stable

    def test_grows_both_dimensions_on_scalable_workload(self):
        c = make_coordinator(_groups(list(range(1, 9))), max_threads=16)
        driver = SyntheticDriver(
            c,
            lambda p, t: 100.0 * (1 + len(p)) * (1 + min(t, len(p)) ),
        )
        driver.run(100)
        assert len(driver.placement) >= 4
        assert driver.threads > 1


class TestHistoryIntegration:
    def test_history_records_created(self):
        c = make_coordinator(_groups([1, 2, 3, 4]))
        driver = SyntheticDriver(
            c, lambda p, t: 100.0 * (1 + len(p)) * (1 + 0.5 * t)
        )
        driver.run(40)
        assert len(c.history) >= 1

    def test_in_range_thread_change_skips_secondary(self):
        """A thread move inside the recorded range must not trigger a
        threading model phase (learning from history, §3.3)."""
        groups = _groups([1, 2, 3, 4])
        c = make_coordinator(
            groups, max_threads=8, use_satisfaction_factor=False
        )
        # Saturating throughput: queues help up to 2, threads don't.
        driver = SyntheticDriver(
            c, lambda p, t: 100.0 * (1 + min(len(p), 2))
        )
        driver.run(60)
        record = c.history.last
        assert record is not None
        # All visited thread levels are inside the final record range.
        assert record.min_threads <= driver.threads <= record.max_threads


class TestOptimizationFlags:
    def _run(self, **kw):
        c = make_coordinator(
            _groups(list(range(1, 9))), max_threads=16, **kw
        )
        driver = SyntheticDriver(
            c,
            lambda p, t: 100.0 * (1 + len(p)) * (1 + min(t, len(p))),
        )
        driver.run(120)
        return c, driver

    def test_all_variants_converge_similarly(self):
        results = {}
        for name, kw in [
            ("none", dict(use_history=False, use_satisfaction_factor=False)),
            ("history", dict(use_history=True, use_satisfaction_factor=False)),
            ("sf", dict(use_history=True, use_satisfaction_factor=True)),
        ]:
            c, driver = self._run(**kw)
            results[name] = driver.history[-1][2]
        values = list(results.values())
        assert max(values) / min(values) < 1.3

    def test_satisfaction_factor_reduces_tm_phases(self):
        _c_none, d_none = self._run(
            use_history=False, use_satisfaction_factor=False
        )
        _c_sf, d_sf = self._run(
            use_history=True,
            use_satisfaction_factor=True,
            satisfaction_threshold=0.0,
        )
        tm_periods_none = sum(
            1
            for m in _c_none.mode_history()
            if m is Mode.THREADING_MODEL
        )
        tm_periods_sf = sum(
            1 for m in _c_sf.mode_history() if m is Mode.THREADING_MODEL
        )
        assert tm_periods_sf <= tm_periods_none


class TestWorkloadChangeDetection:
    def test_stable_mode_restarts_on_shift(self):
        groups = _groups([1, 2, 3, 4])
        c = make_coordinator(groups, max_threads=8)
        state = {"scale": 1.0}

        def f(p, t):
            return state["scale"] * 100.0 * (1 + min(len(p), 2))

        driver = SyntheticDriver(c, f)
        driver.run(60)
        assert c.is_stable
        state["scale"] = 3.0
        driver.run(10)
        assert not c.is_stable or len(c.mode_history()) > 0
        # It must have left STABLE at some point after the shift.
        recent = c.mode_history()[-8:]
        assert any(m is not Mode.STABLE for m in recent)

    def test_small_fluctuations_do_not_restart(self):
        groups = _groups([1, 2])
        c = make_coordinator(groups, max_threads=4)
        import numpy as np

        rng = np.random.default_rng(0)

        def f(p, t):
            return 200.0 * (1 + rng.normal(0, 0.01))

        driver = SyntheticDriver(c, f)
        driver.run(100)
        assert c.is_stable
        tail = c.mode_history()[-30:]
        assert all(m is Mode.STABLE for m in tail)


class TestEndToEnd:
    def test_on_performance_model(self, small_machine):
        graph = pipeline(20, cost_flops=5000.0, payload_bytes=256)
        config = RuntimeConfig(cores=8, seed=3)
        pe = ProcessingElement(graph, small_machine, config)
        manual = pe.true_throughput()
        executor = AdaptationExecutor(pe)
        result = executor.run(
            executor.periods_for(4000), stop_after_stable_periods=12
        )
        assert result.converged_throughput > 2.0 * manual
        assert 1 <= result.final_threads <= 8
