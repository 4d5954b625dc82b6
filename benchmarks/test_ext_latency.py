"""Extension experiment (beyond the paper): the latency side.

The paper optimizes throughput; streaming SLAs also care about latency.
Using the queueing-latency estimator this bench asks: does the
configuration multi-level elasticity converges to also behave well on
latency?

Shape assertions:
- at light load, the multi-level configuration's latency stays within a
  small factor of pure manual threading (few queues -> few extra hops),
  while full dynamic pays a hop/copy penalty on every operator;
- at loads beyond manual's capacity, the multi-level configuration
  still delivers finite latency where manual saturates outright.
"""

from __future__ import annotations

from _bench_util import record, run_once

from repro.bench.harness import run_multi_level
from repro.bench.reporting import format_table
from repro.graph import pipeline
from repro.perfmodel import PerformanceModel, xeon_176
from repro.perfmodel.latency import estimate_latency
from repro.runtime import QueuePlacement, RuntimeConfig


def _experiment():
    graph = pipeline(100, cost_flops=1000.0, payload_bytes=1024)
    machine = xeon_176().with_cores(88)
    model = PerformanceModel(graph, machine)

    multi = run_multi_level(
        graph, machine, RuntimeConfig(cores=88, seed=0)
    )
    # Reconstruct the converged placement from the final trace state is
    # not exposed; instead re-run a PE to convergence and query it.
    from repro.runtime import ProcessingElement
    from repro.runtime.executor import AdaptationExecutor

    pe = ProcessingElement(
        graph, machine, RuntimeConfig(cores=88, seed=0)
    )
    executor = AdaptationExecutor(pe)
    executor.run(executor.periods_for(20_000), stop_after_stable_periods=24)
    multi_placement = pe.placement
    multi_threads = pe.scheduler_threads

    manual = QueuePlacement.empty()
    full = QueuePlacement.full(graph)

    manual_capacity = model.estimate(manual, 0).throughput

    rows = []
    results = {}
    for label, placement, threads in [
        ("manual", manual, 0),
        ("multi-level", multi_placement, multi_threads),
        ("full dynamic", full, 87),
    ]:
        capacity = model.estimate(placement, threads).throughput
        light = estimate_latency(model, placement, threads, 0.2)
        # Absolute load: 1.5x manual capacity.
        load = 1.5 * manual_capacity
        at_load = estimate_latency(
            model, placement, threads, load / capacity
        )
        results[label] = (light, at_load, capacity)
        rows.append(
            [
                label,
                capacity,
                light.latency_ms,
                (
                    "saturated"
                    if at_load.saturated
                    else f"{at_load.latency_ms:.3f}"
                ),
            ]
        )
    table = format_table(
        [
            "configuration",
            "capacity T/s",
            "latency ms @20% own load",
            "latency ms @1.5x manual capacity",
        ],
        rows,
        title="Extension -- latency behaviour of converged configurations",
    )
    return results, table


def test_ext_latency(benchmark):
    results, table = run_once(benchmark, _experiment)
    record("ext_latency", table)

    manual_light, manual_loaded, _c = results["manual"]
    multi_light, multi_loaded, _c2 = results["multi-level"]
    full_light, _full_loaded, _c3 = results["full dynamic"]

    # Light load: multi-level stays within a small factor of manual;
    # full dynamic pays per-operator hop costs.
    assert multi_light.latency_s < 5.0 * manual_light.latency_s
    assert full_light.latency_s > multi_light.latency_s
    # Beyond manual capacity: manual saturates, multi-level does not.
    assert manual_loaded.saturated
    assert not multi_loaded.saturated
    assert multi_loaded.latency_s < float("inf")
