#!/usr/bin/env python
"""A multi-PE job: independent elasticity per host, coupled by dataflow.

The paper scopes its mechanism to one PE and notes that "all PEs in a
job independently use the proposed work to maximize their performance".
This example cuts one 250-operator chain into a three-PE job — ingest
on a small edge box, analytics on a big server, reporting on a medium
one — and lets each PE's own multi-level coordinator adapt on the
analytical model.  Round-robin channels to single replicas couple the
PEs: each period, a PE's ingress is capped at what its upstream PE
emitted in that period (network backpressure).

Run:  python examples/multi_pe_job.py
"""

from repro.bench.figures import three_pe_chain_job
from repro.job import JobAdaptationRunner
from repro.runtime import RuntimeConfig
from repro.scenarios.schema import Backend


def main() -> None:
    job, hosts = three_pe_chain_job()
    runner = JobAdaptationRunner(
        job, hosts, RuntimeConfig(seed=7), backend=Backend.PERFMODEL
    )
    result = runner.run(
        runner.periods_for(10_000.0), stop_after_stable_periods=16
    )

    print(f"job settled after {len(result.trace.observations)} periods")
    print(f"job throughput: {result.converged_throughput:,.0f} tuples/s\n")
    header = (
        f"{'PE':<10s} {'throughput':>14s} {'input cap':>14s} "
        f"{'threads':>8s} {'queues':>7s}"
    )
    print(header)
    print("-" * len(header))
    for pe in job.pes:
        stage = result.pe_results[pe.name]
        caps = [
            runner.runners[pe.name].graph.by_name(name).max_rate
            for name in pe.ingress
        ]
        cap = f"{caps[0]:,.0f}" if caps and caps[0] else "-"
        print(
            f"{pe.name:<10s} {stage.converged_throughput:>14,.0f} "
            f"{cap:>14s} {stage.final_threads:>8d} "
            f"{stage.final_n_queues:>7d}"
        )


if __name__ == "__main__":
    main()
