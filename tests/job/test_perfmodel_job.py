"""Multi-PE jobs on the analytical model: independent per-PE
elasticity, PEs coupled by ingress rate caps."""

from __future__ import annotations

import pytest

from repro.graph import GraphBuilder
from repro.job.executor import JobAdaptationRunner, PerfmodelPe
from repro.job.graph import build_job_graph
from repro.perfmodel import laptop
from repro.runtime import RuntimeConfig
from repro.scenarios.schema import (
    Backend,
    PartitionSpec,
    PartitionStrategy,
    PeSpec,
)


def chain_job(costs=(2000.0, 2000.0), length=10):
    """One chain of ``length`` operators per stage, PE ``pe<i>`` per
    stage, joined by round-robin channels to single replicas."""
    b = GraphBuilder("chain", payload_bytes=256)
    refs = [b.add_source("src")]
    stages = []
    for i, cost in enumerate(costs):
        names = [f"s{i}op{j}" for j in range(length)]
        refs += [b.add_operator(n, cost_flops=cost) for n in names]
        stages.append(names)
    refs.append(b.add_sink("snk"))
    b.chain(*refs)
    stages[0].insert(0, "src")
    stages[-1].append("snk")
    pes = tuple(
        PeSpec(name=f"pe{i}", operators=tuple(names))
        for i, names in enumerate(stages)
    )
    return build_job_graph(
        b.build(), pes, PartitionSpec(strategy=PartitionStrategy.ROUND_ROBIN)
    )


def run_job(job, cores=(8, 8)):
    hosts = {pe.name: laptop(n) for pe, n in zip(job.pes, cores)}
    runner = JobAdaptationRunner(
        job,
        hosts,
        RuntimeConfig(cores=8, seed=1),
        backend=Backend.PERFMODEL,
    )
    result = runner.run(
        runner.periods_for(4000.0), stop_after_stable_periods=16
    )
    return runner, result


def pe_throughputs(result):
    return [r.converged_throughput for r in result.pe_results.values()]


class TestPerfmodelJob:
    def test_pes_run_on_the_model(self):
        runner, _result = run_job(chain_job())
        assert all(isinstance(r, PerfmodelPe) for r in runner.runners.values())

    def test_rejects_empty(self):
        b = GraphBuilder("chain", payload_bytes=256)
        b.chain(b.add_source("src"), b.add_sink("snk"))
        with pytest.raises(ValueError):
            build_job_graph(b.build(), ())

    def test_single_pe_job(self):
        _runner, result = run_job(chain_job(costs=(2000.0,)), cores=(8,))
        assert list(result.final_replicas) == ["pe0"]
        assert result.converged_throughput > 0

    def test_downstream_capped_by_upstream(self):
        """A slow upstream PE bounds the whole job."""
        # pe0 heavy on a small host, pe1 light on a bigger host.
        runner, result = run_job(
            chain_job(costs=(50_000.0, 500.0)), cores=(2, 8)
        )
        pe0, pe1 = pe_throughputs(result)
        assert pe1 <= pe0 * 1.05
        # pe1's ingress is capped at pe0's emission.
        cap = runner.runners["pe1"].graph.by_name("in:s1op0").max_rate
        assert cap == pytest.approx(pe0, rel=0.05)
        assert result.converged_throughput <= pe0 * 1.05

    def test_balanced_pes_reach_similar_rates(self):
        _runner, result = run_job(chain_job())
        pe0, pe1 = pe_throughputs(result)
        assert pe1 == pytest.approx(pe0, rel=0.25)

    def test_each_pe_reports_configuration(self):
        _runner, result = run_job(chain_job())
        for pe_result in result.pe_results.values():
            assert pe_result.final_threads >= 1
            assert pe_result.final_n_queues >= 0

    def test_hosts_set_each_pe_core_count(self):
        runner, _result = run_job(chain_job(), cores=(2, 6))
        assert runner.runners["pe0"].config.cores == 2
        assert runner.runners["pe1"].config.cores == 6
