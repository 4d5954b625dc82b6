"""The measurement memo key ignores the thread count without queues.

``DesEngine.start`` spawns scheduler threads only when the placement
has a scheduler queue, so with an empty placement the thread count
cannot change a run: ``DesAdaptationRunner`` records it as 0 in the
memo key and a second thread count replays the first one's cell.
These tests prove the premise on every single-PE DES zoo graph and
check the replay.  That the zoo's decision logs and dropped-tuple
counts did not move is pinned by ``tests/runtime/test_golden_loop.py``.
"""

from __future__ import annotations

import os

import pytest

from repro.bench import cache
from repro.des import DesAdaptationRunner
from repro.des.engine import DesEngine
from repro.graph import pipeline
from repro.obs.hub import ObservabilityHub
from repro.perfmodel import laptop
from repro.runtime import RuntimeConfig
from repro.runtime.queues import QueuePlacement
from repro.scenarios import compile_scenario, load_scenario
from repro.scenarios.schema import Backend

ZOO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "scenarios"
)
THREADS = (0, 1, 2, 4, 8)


def _single_pe_des_zoo():
    for entry in sorted(os.listdir(ZOO)):
        scenario = load_scenario(os.path.join(ZOO, entry))
        if scenario.run.backend is not Backend.PERFMODEL and not scenario.pes:
            yield scenario


@pytest.mark.parametrize(
    "scenario", list(_single_pe_des_zoo()), ids=lambda s: s.name
)
def test_queue_less_result_ignores_thread_count(scenario):
    compiled = compile_scenario(scenario)
    factory = compiled.arrivals_factory()
    results = []
    for threads in THREADS:
        engine = DesEngine(
            compiled.graph,
            compiled.machine,
            QueuePlacement.empty(),
            threads,
            queue_capacity=scenario.run.queue_capacity,
            arrivals=factory(0.0) if factory is not None else None,
            overflow=compiled.overflow,
            channel=compiled.channel,
        )
        profiler = engine.attach_profiler(period_s=2.5e-5)
        result = engine.run(warmup_s=0.0005, measure_s=0.002)
        results.append(
            (
                result,
                profiler.profile(len(compiled.graph)),
                engine.sim.events_processed,
            )
        )
    assert results[0][0].sink_tuples > 0
    assert all(r == results[0] for r in results[1:])


def _counter(hub, name):
    metric = hub.registry.get(name)
    return metric.value if metric is not None else 0.0


def test_second_thread_count_is_a_memo_hit():
    graph = pipeline(4, cost_flops=2000.0, payload_bytes=64)
    hub = ObservabilityHub()
    runner = DesAdaptationRunner(
        graph,
        laptop(4),
        RuntimeConfig(cores=4, seed=3),
        warmup_s=0.001,
        measure_s=0.002,
        obs=hub,
    )
    cache.clear()
    try:
        assert not runner.placement.queued
        runner.threads = 1
        first = runner.measure()
        events = runner.sim_events
        runner.threads = 4
        second = runner.measure()
        assert second == first
        assert runner.sim_events == events
        assert _counter(hub, "bench.cache_hits") == 1
        assert _counter(hub, "bench.cache_misses") == 1
        # With a queue the thread count matters again: a miss.
        runner.placement = QueuePlacement.of([2])
        runner.measure()
        runner.threads = 1
        runner.measure()
        assert _counter(hub, "bench.cache_misses") == 3
        assert runner.sim_events > events
    finally:
        cache.clear()
