"""A walkthrough of the paper's Figure 5 multi-level elasticity story.

Fig. 5 narrates six snapshots of a PE: (a) no queues, idle scheduler
threads; (b) threading model elasticity adds queues and the scheduler
threads become useful; (c) thread count elasticity adds threads; (d)
another round of threading model elasticity adds a queue; (e) further
adjustment stops paying; (f) the algorithm reverts the last adjustment
and stabilizes.  Each test pins one of those mechanics on the simulated
substrate.
"""

from __future__ import annotations

import pytest

from repro.graph import pipeline
from repro.perfmodel import PerformanceModel, laptop
from repro.runtime import (
    ProcessingElement,
    QueuePlacement,
    RuntimeConfig,
)
from repro.runtime.executor import AdaptationExecutor


@pytest.fixture
def graph():
    return pipeline(12, cost_flops=4000.0, payload_bytes=128)


@pytest.fixture
def machine():
    return laptop(8)


class TestSnapshotA:
    def test_idle_scheduler_threads_are_free(self, graph, machine):
        """(a): scheduler threads without queues change nothing."""
        pm = PerformanceModel(graph, machine)
        none = pm.estimate(QueuePlacement.empty(), 0)
        idle2 = pm.estimate(QueuePlacement.empty(), 2)
        assert idle2.throughput == pytest.approx(none.throughput)
        assert idle2.scheduler_threads_used == 0


class TestSnapshotB:
    def test_first_queues_activate_scheduler_threads(
        self, graph, machine
    ):
        """(b): queues give the idle threads work; throughput rises."""
        pm = PerformanceModel(graph, machine)
        idle = pm.estimate(QueuePlacement.empty(), 2)
        mid = graph.by_name("op5").index
        tail = graph.by_name("op9").index
        busy = pm.estimate(QueuePlacement.of([mid, tail]), 2)
        assert busy.scheduler_threads_used == 2
        assert busy.throughput > 1.5 * idle.throughput


class TestSnapshotCD:
    def test_threads_then_queues_interleave(self, graph, machine):
        """(c)+(d): more threads help once more queues exist, and vice
        versa — the interleaved gains the coordinator exploits."""
        pm = PerformanceModel(graph, machine)
        eligible = [op.index for op in graph if not op.is_source]
        three_q = QueuePlacement.of(eligible[:9:3])
        four_q = three_q.add([eligible[10]])
        t3q3 = pm.estimate(three_q, 3).throughput
        t3q4 = pm.estimate(four_q, 3).throughput
        t4q4 = pm.estimate(four_q, 4).throughput
        assert t4q4 > t3q3  # the joint move wins
        assert t3q4 >= t3q3 * 0.95  # the intermediate step is safe


class TestSnapshotEF:
    def test_executor_reverts_unhelpful_trials(self, graph, machine):
        """(e)+(f): trials that do not pay are reverted; the final
        configuration is the best one seen, and the system stabilizes."""
        config = RuntimeConfig(cores=8, seed=11)
        pe = ProcessingElement(graph, machine, config)
        executor = AdaptationExecutor(pe)
        result = executor.run(
            executor.periods_for(8000), stop_after_stable_periods=12
        )
        trace = result.trace
        assert executor.coordinator.is_stable
        # The converged throughput equals the best sustained level of
        # the run (temporary trial peaks aside, the system did not end
        # below what it already had).
        sustained = sorted(
            o.true_throughput for o in trace.observations
        )
        assert result.converged_throughput >= 0.9 * sustained[
            int(0.9 * (len(sustained) - 1))
        ]
        # And it ends strictly better than where it started.
        assert (
            result.converged_throughput
            > trace.observations[0].true_throughput
        )
