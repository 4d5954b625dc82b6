"""End-to-end properties of an observed elastic run.

The contract under test is the one docs/OBSERVABILITY.md promises:
one coordinator Decision per adaptation period, a closed rule
vocabulary, every applied configuration change attributable to the
decision immediately preceding it — and byte-identical behaviour when
the hub is detached.  The per-period contract holds on every
substrate of the elastic loop: the analytical model, the DES, and a
multi-PE job, whose clock ticks once per job period.
"""

from __future__ import annotations

import pytest

from repro.bench import cache
from repro.des.adaptation import DesAdaptationRunner
from repro.graph.topologies import pipeline
from repro.job.executor import JobAdaptationRunner
from repro.job.graph import build_job_graph
from repro.obs import VALID_RULES, Decision, LoggedEvent, ObservabilityHub
from repro.perfmodel.machine import laptop
from repro.runtime.config import RuntimeConfig
from repro.runtime.executor import run_elastic
from repro.runtime.pe import ProcessingElement
from repro.scenarios.schema import PeSpec


def _pe(seed: int = 0) -> ProcessingElement:
    graph = pipeline(20, cost_flops=100.0, payload_bytes=256)
    machine = laptop(cores=8)
    return ProcessingElement(
        graph, machine, RuntimeConfig(cores=8, seed=seed)
    )


def _des_run(hub):
    cache.clear()
    runner = DesAdaptationRunner(
        pipeline(6, cost_flops=2000.0, payload_bytes=256),
        laptop(cores=4),
        RuntimeConfig(cores=4, seed=0),
        warmup_s=0.001,
        measure_s=0.004,
        obs=hub,
    )
    result = runner.run(max_periods=30, stop_after_stable_periods=None)
    cache.clear()
    return result


@pytest.fixture(scope="module")
def observed_run():
    hub = ObservabilityHub()
    result = run_elastic(_pe(), duration_s=2_000.0, obs=hub)
    return hub, result


@pytest.fixture(scope="module", params=["perfmodel", "des"])
def substrate_run(request, observed_run):
    if request.param == "perfmodel":
        return observed_run
    hub = ObservabilityHub()
    return hub, _des_run(hub)


class TestDecisionPerPeriod:
    def test_exactly_one_decision_per_adaptation_period(self, substrate_run):
        hub, result = substrate_run
        observations = hub.events("observation")
        decisions = hub.decisions()
        assert len(observations) > 0
        assert len(observations) == len(result.trace.observations)
        assert len(decisions) == len(observations)
        # Periods are consecutive, one decision each, stamped with the
        # period's end on the loop clock.
        assert [d.period for d in decisions] == list(range(len(decisions)))
        assert [d.time_s for d in decisions] == [
            o.time_s for o in result.trace.observations
        ]

    def test_every_rule_is_in_the_closed_vocabulary(self, observed_run):
        hub, _result = observed_run
        for decision in hub.decisions():
            assert decision.rule in VALID_RULES

    def test_metrics_agree_with_the_log(self, substrate_run):
        hub, result = substrate_run
        reg = hub.registry
        assert reg.get("loop.decisions").value == len(hub.decisions())
        assert reg.get("loop.periods").value == len(
            hub.events("observation")
        )
        assert reg.get("loop.periods").value == len(
            result.trace.observations
        )
        assert reg.get("loop.thread_changes").value == len(
            hub.events("thread_change")
        )

    def test_job_ticks_once_per_job_period(self):
        cache.clear()
        hub = ObservabilityHub()
        job = build_job_graph(
            pipeline(4, cost_flops=1000.0, payload_bytes=128),
            (
                PeSpec(name="a", operators=("src", "op0", "op1")),
                PeSpec(name="b", operators=("op2", "op3", "snk")),
            ),
        )
        result = JobAdaptationRunner(
            job,
            laptop(4),
            RuntimeConfig(seed=3),
            warmup_s=0.001,
            measure_s=0.004,
            obs=hub,
        ).run(max_periods=5, stop_after_stable_periods=None)
        cache.clear()
        assert len(result.trace.observations) == 5
        # The per-PE loops run on scoped views that never tick.
        assert hub.registry.get("loop.periods").value == 5
        assert hub.events("observation") == ()


class TestCausalOrdering:
    def test_every_change_is_preceded_by_its_decision(self, observed_run):
        hub, _result = observed_run
        records = hub.records()
        for i, record in enumerate(records):
            if not isinstance(record, LoggedEvent):
                continue
            if record.kind not in ("thread_change", "placement_change"):
                continue
            preceding = [
                r for r in records[:i] if isinstance(r, Decision)
            ]
            assert preceding, f"change at seq {record.seq} has no decision"
            decision = preceding[-1]
            assert decision.time_s == record.time_s
            if record.kind == "thread_change":
                assert decision.set_threads == record.data.new_threads
            else:
                assert decision.set_n_queues == record.data.new_n_queues

    def test_sequence_numbers_are_total_order(self, observed_run):
        hub, _result = observed_run
        seqs = [r.seq for r in hub.records()]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))


class TestDetachedIdentity:
    def test_observed_and_detached_runs_are_identical(self):
        plain = run_elastic(_pe(seed=3), duration_s=1_000.0)
        observed = run_elastic(
            _pe(seed=3), duration_s=1_000.0, obs=ObservabilityHub()
        )
        assert plain.final_threads == observed.final_threads
        assert plain.final_n_queues == observed.final_n_queues
        assert (
            plain.converged_throughput == observed.converged_throughput
        )
        assert plain.trace.observations == observed.trace.observations
        assert plain.trace.thread_changes == observed.trace.thread_changes
        assert (
            plain.trace.placement_changes
            == observed.trace.placement_changes
        )
