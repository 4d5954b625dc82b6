#!/usr/bin/env python
"""Adaptation to a workload phase change (Fig. 13), with ASCII timeline.

A 100-operator pipeline starts with 10 % heavy-weight operators; twenty
minutes into the run the heavy ratio jumps to 90 %.  The multi-level
elasticity detects the throughput shift, re-profiles, and re-adapts
both the thread count and the queue placement.

Run:  python examples/workload_phase_change.py
"""

from repro.apps.workloads import phase_change
from repro.perfmodel import xeon_176
from repro.runtime import ProcessingElement, RuntimeConfig
from repro.runtime.executor import AdaptationExecutor

CHANGE_TIME_S = 1200.0

def sparkline(values, width=72):
    """Downsample values into a unicode sparkline."""
    blocks = " .:-=+*#%@"
    if not values:
        return ""
    bucket = max(1, len(values) // width)
    sampled = [
        max(values[i : i + bucket])
        for i in range(0, len(values), bucket)
    ]
    top = max(sampled) or 1.0
    return "".join(
        blocks[min(len(blocks) - 1, int(v / top * (len(blocks) - 1)))]
        for v in sampled
    )

def main() -> None:
    workload = phase_change(
        n_operators=100, change_time_s=CHANGE_TIME_S, seed=0
    )
    machine = xeon_176().with_cores(88)
    pe = ProcessingElement(
        workload.initial, machine, RuntimeConfig(cores=88, seed=0)
    )
    executor = AdaptationExecutor(pe, workload_events=workload.events())
    result = executor.run(
        executor.periods_for(3600), stop_after_stable_periods=None
    )
    trace = result.trace

    throughputs = [o.true_throughput for o in trace.observations]
    threads = [float(o.threads) for o in trace.observations]
    queues = [float(o.n_queues) for o in trace.observations]
    print("throughput:", sparkline(throughputs))
    print("threads   :", sparkline(threads))
    print("queues    :", sparkline(queues))
    marker_pos = int(
        CHANGE_TIME_S / trace.duration_s * 72
    )
    print(" " * (12 + marker_pos) + "^ workload change (heavy 10% -> 90%)")

    before = [o for o in trace.observations if o.time_s < CHANGE_TIME_S]
    after = [o for o in trace.observations if o.time_s >= CHANGE_TIME_S]
    changes_after = [
        c.time_s
        for c in trace.thread_changes + trace.placement_changes
        if c.time_s >= CHANGE_TIME_S
    ]
    print()
    print(f"before change: {before[-1].threads} threads, "
          f"{before[-1].n_queues} queues")
    print(f"after change : {after[-1].threads} threads, "
          f"{after[-1].n_queues} queues")
    if changes_after:
        print(f"re-adaptation finished {max(changes_after) - CHANGE_TIME_S:.0f} s "
              "after the workload shift")

if __name__ == "__main__":
    main()
