"""Committed benchmark artifacts match what the code produces.

``BENCH_adaptation.json`` is written by
``benchmarks/test_adaptation_perf.py``; its deterministic fields (the
simulated-event count, the memo tally and the converged
configuration) must be what the current engine and coordinator
produce, or the artifact describes code that no longer exists.
"""

from __future__ import annotations

import json
import pathlib

from repro.bench.figures import fig07_des_adaptation

ROOT = pathlib.Path(__file__).resolve().parents[2]
COPIES = (
    ROOT / "BENCH_adaptation.json",
    ROOT / "benchmarks" / "results" / "BENCH_adaptation.json",
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
