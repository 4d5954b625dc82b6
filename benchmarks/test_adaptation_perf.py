"""Profiled-adaptation microbenchmark: the fast path under profiling.

Times the profiled 8-operator adaptation scenario (§3.1 + Fig. 7 on
the DES substrate) in two configurations:

- **before** — the previous design: unprofiled measurement runs plus a
  dedicated *fine-grained* profiling run (per-operator time
  advancement, no coalescing) each time the coordinator asks for
  profiling groups; measurement memoization off.
- **after** — this PR's path: continuous sampled-accounting profiling
  (the profiler rides inside every measurement run while the engine
  keeps its coalesced fast path) plus measurement memoization.

Because sampled profiling is non-intrusive — a profiled measurement
returns exactly what an unprofiled one would — and memoized cells are
replayed deterministically, the two configurations must walk the
*same* R1-R5/Fig. 7 decision sequence to the same final
``(threads, placement)``; the assertion below enforces that, so the
speedup can never come from the adaptation quietly behaving
differently.

Emits ``benchmarks/results/BENCH_adaptation.json`` with before/after
wall seconds and kernel events/s, tracked per PR next to
``BENCH_des.json``.
"""

from __future__ import annotations

from _bench_util import record, record_json, run_once

from repro.bench.figures import fig07_des_adaptation

MAX_PERIODS = 200

# Floors are deliberately conservative (CI boxes vary).  On a 2-core
# VM, ten interleaved before/after pairs (CPU time) measured a median
# speedup of 4.8x (range 3.9x to 6.7x) and 330k to 560k executed
# events/s on the "after" configuration, so the wall-speedup floor
# currently fails there: the fine-grained baseline runs mostly
# through _region_work, which every per-event cut sped up as much as
# the sampled path.
MIN_WALL_SPEEDUP = 5.0
MIN_EVENTS_PER_S = 50_000.0


def _run_before_after():
    before = fig07_des_adaptation(
        sampled_profiling=False, memoize=False, max_periods=MAX_PERIODS
    )
    after = fig07_des_adaptation(
        sampled_profiling=True, memoize=True, max_periods=MAX_PERIODS
    )
    return before, after


def test_profiled_adaptation_fast_path(benchmark):
    before, after = run_once(benchmark, _run_before_after)

    speedup = before.wall_s / after.wall_s
    after_events_per_s = after.sim_events / after.wall_s

    def row(s):
        return {
            "wall_s": round(s.wall_s, 4),
            "sim_events": s.sim_events,
            "events_per_s": round(s.sim_events / s.wall_s, 1),
            "final_threads": s.final_threads,
            "final_queues": list(s.final_queues),
            "converged_throughput": round(s.converged_throughput, 1),
            "cache_hits": s.cache_hits,
            "cache_misses": s.cache_misses,
        }

    record_json(
        "BENCH_adaptation",
        {
            "scenario": (
                "pipeline(8 ops, 4000 FLOPs, 128 B) | laptop(4 cores) | "
                f"profile_from_execution | {MAX_PERIODS} periods x "
                "(1 ms warmup + 4 ms measured)"
            ),
            "before_fine_grained_no_memo": row(before),
            "after_sampled_memoized": row(after),
            "wall_speedup": round(speedup, 2),
            "sim_events_ratio": round(
                before.sim_events / max(1, after.sim_events), 2
            ),
            "decisions_equal": before.decisions == after.decisions,
            "n_decisions": len(after.decisions),
        },
    )
    record(
        "adaptation_fast_path",
        "\n".join(
            [
                "Profiled adaptation -- sampled accounting + memoization",
                f"  before (fine, no memo) {before.wall_s:8.3f} s  "
                f"{before.sim_events:10,d} events",
                f"  after  (sampled+memo)  {after.wall_s:8.3f} s  "
                f"{after.sim_events:10,d} events",
                f"  wall speedup    {speedup:6.2f}x",
                f"  cache hits      {after.cache_hits}"
                f" / {after.cache_hits + after.cache_misses} lookups",
                f"  final config    threads={after.final_threads} "
                f"queues={list(after.final_queues)}",
            ]
        ),
    )

    # Behavioural equivalence: same decision path, same destination.
    assert after.decisions == before.decisions, (
        "sampled+memoized run took a different R1-R5 decision sequence "
        "than the fine-grained baseline"
    )
    assert after.final_threads == before.final_threads
    assert after.final_queues == before.final_queues
    # The cache must actually be doing work in the after configuration.
    assert after.cache_hits > 0
    assert before.cache_hits == 0
    # Perf floors.
    assert speedup >= MIN_WALL_SPEEDUP, (
        f"profiled adaptation speedup regressed: {speedup:.2f}x is below "
        f"the {MIN_WALL_SPEEDUP:.1f}x floor"
    )
    assert after_events_per_s >= MIN_EVENTS_PER_S, (
        f"DES throughput regressed: {after_events_per_s:,.0f} events/s "
        f"is below the {MIN_EVENTS_PER_S:,.0f}/s floor"
    )
