#!/usr/bin/env python
"""The complete elastic loop on the tuple-level discrete-event simulator.

Most experiments use the fast analytical substrate; this example runs
the *same controllers* against the DES engine, where tuples really move
through bounded queues, threads contend for core tokens and
backpressure propagates — demonstrating that the elasticity stack is
substrate-agnostic end to end.

Expect ~30-60 s of wall time (tuple-level simulation is expensive).

Run:  python examples/elasticity_on_des.py
"""

import time

from repro.des import DesAdaptationRunner
from repro.graph import pipeline
from repro.perfmodel import laptop
from repro.runtime import ElasticityConfig, RuntimeConfig

def main() -> None:
    graph = pipeline(12, cost_flops=3000.0, payload_bytes=128)
    machine = laptop(8)
    config = RuntimeConfig(
        cores=8,
        seed=3,
        elasticity=ElasticityConfig(profiling_samples=400),
    )
    runner = DesAdaptationRunner(graph, machine, config)
    manual, _true = runner.measure()
    print(f"manual execution (DES): {manual:12,.0f} tuples/s")
    print("running the elastic adaptation loop on the DES engine ...")
    start = time.time()
    result = runner.run(max_periods=80)
    elapsed = time.time() - start

    print(f"converged (DES)       : {result.converged_throughput:12,.0f} "
          f"tuples/s ({result.converged_throughput / manual:.2f}x manual)")
    print(f"final configuration   : {result.final_threads} scheduler "
          f"threads, {result.final_placement.n_queues} queues")
    print(f"adaptation periods    : {len(result.trace.observations)} "
          f"({elapsed:.0f}s wall time)")

    print("\nthroughput trajectory (every 4th period):")
    for obs in result.trace.observations[::4]:
        bar = "#" * int(40 * obs.true_throughput
                        / max(o.true_throughput
                              for o in result.trace.observations))
        print(f"  t={obs.time_s:5.0f}s thr={obs.threads} "
              f"q={obs.n_queues:2d} {bar}")

if __name__ == "__main__":
    main()
