"""Committed benchmark artifacts match what the code produces.

``BENCH_adaptation.json`` is written by
``benchmarks/test_adaptation_perf.py``; its deterministic fields (the
simulated-event count, the memo tally and the converged
configuration) must be what the current engine and coordinator
produce, or the artifact describes code that no longer exists.

``BENCH_des.json`` is written by ``benchmarks/test_des_kernel.py`` and
``benchmarks/test_multi_pe_des.py``; its deterministic fields are the
kernel scenario's event and sink-tuple counts and the replica sweep's
converged throughputs, checked here at the sweep's ends (R=1, R=8).
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.bench import cache
from repro.bench.figures import fig07_des_adaptation
from repro.des.engine import DesEngine
from repro.graph.builder import GraphBuilder
from repro.graph.topologies import pipeline
from repro.job.executor import JobAdaptationRunner
from repro.job.graph import build_job_graph
from repro.perfmodel.machine import laptop
from repro.runtime.config import RuntimeConfig
from repro.runtime.queues import QueuePlacement
from repro.scenarios.schema import PartitionSpec, PartitionStrategy, PeSpec

ROOT = pathlib.Path(__file__).resolve().parents[2]
COPIES = (
    ROOT / "BENCH_adaptation.json",
    ROOT / "benchmarks" / "results" / "BENCH_adaptation.json",
)
DES_COPIES = (
    ROOT / "BENCH_des.json",
    ROOT / "benchmarks" / "results" / "BENCH_des.json",
)
DETERMINISTIC = (
    "sim_events",
    "final_threads",
    "final_queues",
    "converged_throughput",
    "cache_hits",
    "cache_misses",
)


def test_committed_copies_agree():
    root, results = (json.loads(path.read_text()) for path in COPIES)
    assert root == results


def test_committed_des_copies_agree():
    root, results = (json.loads(path.read_text()) for path in DES_COPIES)
    assert root == results


def test_sampled_memoized_run_matches_committed():
    committed = json.loads(COPIES[0].read_text())["after_sampled_memoized"]
    # fig07_des_adaptation clears the memo before and after the run.
    run = fig07_des_adaptation(
        sampled_profiling=True, memoize=True, max_periods=200
    )
    fresh = {
        "sim_events": run.sim_events,
        "final_threads": run.final_threads,
        "final_queues": list(run.final_queues),
        # The benchmark rounds the throughput to 0.1 tuples/s.
        "converged_throughput": round(run.converged_throughput, 1),
        "cache_hits": run.cache_hits,
        "cache_misses": run.cache_misses,
    }
    assert {key: committed[key] for key in DETERMINISTIC} == fresh


def test_des_kernel_scenario_matches_committed():
    committed = json.loads(DES_COPIES[0].read_text())["current"]
    # benchmarks/test_des_kernel.py's scenario.
    graph = pipeline(8, cost_flops=2000.0, payload_bytes=128)
    engine = DesEngine(
        graph, laptop(cores=8), QueuePlacement.full(graph), 8
    )
    result = engine.run(warmup_s=0.002, measure_s=0.010)
    # events_processed includes the timeouts the kernel resumes inline,
    # so a kernel that stopped counting them fails here.
    assert engine.sim.events_processed == committed["events"]
    assert result.sink_tuples == committed["sink_tuples"]


def _replica_job(replicas):
    """benchmarks/test_multi_pe_des.py's topology."""
    b = GraphBuilder()
    src = b.add_source("src", cost_flops=50.0)
    work = b.add_operator("work", cost_flops=6000.0)
    snk = b.add_sink("snk", cost_flops=1500.0)
    b.chain(src, work, snk)
    pes = (
        PeSpec(name="ingest", operators=("src",)),
        PeSpec(name="worker", operators=("work",), replicas=replicas),
        PeSpec(name="sinkpe", operators=("snk",)),
    )
    return build_job_graph(
        b.build(), pes, PartitionSpec(strategy=PartitionStrategy.SHUFFLE)
    )


@pytest.mark.parametrize("replicas", [1, 8])
def test_replica_sweep_point_matches_committed(replicas):
    committed = json.loads(DES_COPIES[0].read_text())["multi_pe"]
    cache.clear()
    runner = JobAdaptationRunner(
        _replica_job(replicas),
        laptop(4),
        RuntimeConfig(seed=21),
        warmup_s=0.001,
        measure_s=0.004,
        jobs=1,
    )
    result = runner.run(max_periods=10, stop_after_stable_periods=4)
    cache.clear()
    # The benchmark rounds the throughput to 0.1 tuples/s.
    assert round(result.converged_throughput, 1) == (
        committed["replica_sweep_tuples_per_s"][str(replicas)]
    )
