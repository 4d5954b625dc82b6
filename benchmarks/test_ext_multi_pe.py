"""Extension experiment (beyond the paper): multi-PE jobs.

§2 of the paper: "all PEs in a job independently use the proposed work
to maximize their performance."  This bench cuts one 250-operator
chain into a three-PE job — each PE on its own (simulated) host with
its own coordinator, coupled only through inter-PE backpressure (each
PE's ingress capped at its upstream's emission, round-robin channels
to single replicas) — runs it on the analytical model and checks the
joint outcome.

Shape assertions:
- exactly one PE is the bottleneck: the ingest PE runs uncapped, and
  at most one downstream PE falls short of its ingress cap;
- every PE downstream of the bottleneck is rate-matched to it (within
  10 % of its cap: no PE starves behind a PE that keeps up);
- the job's throughput is the bottleneck's, and every PE settles on
  a valid configuration.
"""

from __future__ import annotations

from _bench_util import record, run_once

from repro.bench.figures import three_pe_chain_job
from repro.bench.reporting import format_table
from repro.job import JobAdaptationRunner
from repro.runtime import RuntimeConfig
from repro.scenarios.schema import Backend


def _experiment():
    job, hosts = three_pe_chain_job()
    runner = JobAdaptationRunner(
        job, hosts, RuntimeConfig(seed=7), backend=Backend.PERFMODEL
    )
    result = runner.run(
        runner.periods_for(15_000.0), stop_after_stable_periods=16
    )
    stages = []
    for pe in job.pes:
        graph = runner.runners[pe.name].graph
        caps = [graph.by_name(name).max_rate for name in pe.ingress]
        cap = caps[0] if caps else None
        stages.append((pe.name, result.pe_results[pe.name], cap))
    return result, stages


def test_ext_multi_pe(benchmark):
    result, stages = run_once(benchmark, _experiment)
    throughput = {name: r.converged_throughput for name, r, _cap in stages}
    short = [
        name
        for name, r, cap in stages
        if cap is not None and r.converged_throughput < 0.9 * cap
    ]
    bottleneck = short[-1] if short else stages[0][0]
    record(
        "ext_multi_pe",
        format_table(
            ["PE", "throughput T/s", "input cap T/s", "threads", "queues"],
            [
                [
                    name,
                    r.converged_throughput,
                    cap if cap else "-",
                    r.final_threads,
                    r.final_n_queues,
                ]
                for name, r, cap in stages
            ],
            title=(
                "Extension -- 3-PE job, independent per-PE elasticity "
                f"(settled after {len(result.trace.observations)} "
                f"periods, bottleneck {bottleneck})"
            ),
        ),
    )

    assert stages[0][2] is None
    assert len(short) <= 1
    # PEs downstream of the bottleneck are rate-matched to it.
    names = [name for name, _r, _cap in stages]
    for name, r, cap in stages[names.index(bottleneck) + 1:]:
        assert r.converged_throughput >= 0.9 * cap
        assert cap <= throughput[bottleneck] * 1.05
    assert result.converged_throughput <= min(throughput.values()) * 1.05
    for _name, r, _cap in stages:
        assert r.final_threads >= 1
