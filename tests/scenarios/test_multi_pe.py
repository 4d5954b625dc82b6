"""Multi-PE scenarios: schema, compilation, and the pass-through
equivalence guarantee.

The acceptance property of the job layer: cutting a pipeline into PEs
joined by forward (pass-through) channels with single replicas does
not perturb any PE's adaptation.  Each PE's R1-R5 decision trace
inside the job is byte-identical to a standalone DES run of its
extracted subgraph under the same derived seed.
"""

from __future__ import annotations

import pytest

from repro.bench import cache
from repro.des.adaptation import DesAdaptationRunner
from repro.job.executor import _PE_SEED_STRIDE, JobAdaptationRunner
from repro.obs.hub import ObservabilityHub
from repro.scenarios import (
    compile_scenario,
    load_scenario,
    run_scenario,
)
from repro.scenarios.schema import (
    PartitionStrategy,
    ScenarioError,
    scenario_from_dict,
    scenario_to_dict,
)
from repro.scenarios.zoo import load_named

BASE = {
    "version": 1,
    "name": "t",
    "topology": {
        "shape": "pipeline",
        "operators": 4,
        "cost": {"flops": 1000.0},
    },
    "machine": {"profile": "laptop", "cores": 4},
    "run": {"backend": "des", "max_periods": 4},
}


def with_pes(pes, partition=None):
    doc = dict(BASE)
    doc["pes"] = pes
    if partition is not None:
        doc["partition"] = partition
    return doc


class TestSchema:
    def test_pes_round_trip(self):
        doc = with_pes(
            [
                {"name": "a", "operators": ["src", "op0", "op1"]},
                {
                    "name": "b",
                    "operators": ["op2", "op3", "snk"],
                    "replicas": 2,
                    "elastic": True,
                    "max_replicas": 4,
                },
            ],
            partition={"strategy": "shuffle", "seed": 5, "key_space": 32},
        )
        sc = scenario_from_dict(doc)
        assert sc.pes[1].elastic and sc.pes[1].replicas == 2
        assert sc.partition.strategy is PartitionStrategy.SHUFFLE
        assert scenario_from_dict(scenario_to_dict(sc)) == sc

    def test_duplicate_pe_name_rejected(self):
        doc = with_pes(
            [
                {"name": "a", "operators": ["src", "op0"]},
                {"name": "a", "operators": ["op1", "op2", "op3", "snk"]},
            ]
        )
        with pytest.raises(ScenarioError, match="duplicate PE name"):
            scenario_from_dict(doc)

    def test_operator_in_two_pes_rejected(self):
        doc = with_pes(
            [
                {"name": "a", "operators": ["src", "op0"]},
                {"name": "b", "operators": ["op0", "op1"]},
            ]
        )
        with pytest.raises(ScenarioError, match="assigned to both"):
            scenario_from_dict(doc)

    def test_pe_without_operators_rejected(self):
        doc = with_pes([{"name": "a"}])
        with pytest.raises(ScenarioError, match="operators"):
            scenario_from_dict(doc)

    def test_unknown_partition_strategy_rejected(self):
        doc = with_pes(
            [{"name": "a", "operators": ["src"]}],
            partition={"strategy": "teleport"},
        )
        with pytest.raises(ScenarioError):
            scenario_from_dict(doc)


class TestCompile:
    def test_single_pe_scenarios_have_no_job(self):
        compiled = compile_scenario(scenario_from_dict(BASE))
        assert not compiled.multi_pe
        assert compiled.job is None

    def test_pes_compile_to_a_job_graph(self):
        doc = with_pes(
            [
                {"name": "a", "operators": ["src", "op0", "op1"]},
                {"name": "b", "operators": ["op2", "op3", "snk"]},
            ]
        )
        compiled = compile_scenario(scenario_from_dict(doc))
        assert compiled.multi_pe
        assert [pe.name for pe in compiled.job.pes] == ["a", "b"]

    def test_pes_compile_on_every_backend(self):
        doc = with_pes(
            [
                {"name": "a", "operators": ["src", "op0", "op1"]},
                {"name": "b", "operators": ["op2", "op3", "snk"]},
            ]
        )
        for backend in ("des", "perfmodel", "both"):
            doc["run"] = dict(doc["run"], backend=backend)
            compiled = compile_scenario(scenario_from_dict(doc))
            assert [pe.name for pe in compiled.job.pes] == ["a", "b"]

    def test_incomplete_partition_is_a_scenario_error(self):
        doc = with_pes([{"name": "a", "operators": ["src"]}])
        with pytest.raises(ScenarioError, match="pes"):
            compile_scenario(scenario_from_dict(doc))


def _signatures(hub, scope):
    return [
        (d.rule, d.set_threads, d.set_n_queues)
        for d in hub.decisions()
        if d.scope == scope
    ]


class TestPassThroughEquivalence:
    def test_fig07_2pe_traces_match_standalone(self):
        """Forward channels, single replicas: every PE adapts exactly
        as its extracted subgraph does standalone."""
        compiled = compile_scenario(
            load_scenario("scenarios/fig07-2pe-passthrough.yaml")
        )
        run = compiled.scenario.run
        periods = 12

        cache.clear()
        hub = ObservabilityHub()
        job_runner = JobAdaptationRunner(
            compiled.job,
            compiled.machine,
            compiled.config,
            warmup_s=run.warmup_s,
            measure_s=run.measure_s,
            queue_capacity=run.queue_capacity,
            profile_from_execution=run.profile_from_execution,
            obs=hub,
        )
        job_runner.run(
            max_periods=periods, stop_after_stable_periods=None
        )

        for i, pe in enumerate(compiled.job.pes):
            in_job = _signatures(hub, f"pe.{pe.name}")
            assert in_job, f"no decisions recorded for {pe.name}"

            cache.clear()
            solo_hub = ObservabilityHub()
            from dataclasses import replace

            solo = DesAdaptationRunner(
                pe.graph,
                compiled.machine,
                replace(
                    compiled.config,
                    seed=compiled.config.seed + _PE_SEED_STRIDE * i,
                ),
                warmup_s=run.warmup_s,
                measure_s=run.measure_s,
                queue_capacity=run.queue_capacity,
                profile_from_execution=run.profile_from_execution,
                obs=solo_hub,
            )
            solo.run(
                max_periods=periods, stop_after_stable_periods=None
            )
            standalone = _signatures(solo_hub, "")
            assert in_job == standalone, (
                f"PE {pe.name!r} adapted differently inside the job"
            )

    def test_pass_through_job_emits_no_job_decisions(self):
        compiled = compile_scenario(
            load_scenario("scenarios/fig07-2pe-passthrough.yaml")
        )
        cache.clear()
        hub = ObservabilityHub()
        (result,) = run_scenario(compiled, obs=hub)
        assert result.decisions == ()
        assert result.pe_replicas == (("back", 1), ("front", 1))
        assert [d for d in hub.decisions() if d.scope == "job"] == []


class TestRunDispatch:
    def test_multi_pe_scenario_reports_replicas(self):
        cache.clear()
        compiled = compile_scenario(
            load_scenario("scenarios/multi-pe-keyhash-scale.yaml")
        )
        (result,) = run_scenario(compiled)
        replicas = dict(result.pe_replicas)
        assert replicas["worker"] > 1
        assert any(r == "JOB-SCALE-OUT" for r, _t, _q in result.decisions)

    def test_perfmodel_backend_runs_the_job(self):
        """The ``pes:`` block is honoured on the perfmodel, not run
        as one PE over the whole topology."""
        compiled = compile_scenario(load_named("multi-pe-keyhash-scale"))
        hub = ObservabilityHub()
        (result,) = run_scenario(compiled, backend="perfmodel", obs=hub)
        assert result.backend == "perfmodel"
        replicas = dict(result.pe_replicas)
        assert set(replicas) == {"ingest", "worker", "sinkpe"}
        assert replicas["worker"] > 1
        assert result.decisions[0][0] == "JOB-INIT"
        assert any(r == "JOB-SCALE-OUT" for r, _t, _q in result.decisions)
        for pe in compiled.job.pes:
            assert _signatures(hub, f"pe.{pe.name}")

    def test_both_backends_run_the_job(self):
        cache.clear()
        compiled = compile_scenario(load_named("multi-pe-keyhash-scale"))
        des, perfmodel = run_scenario(compiled, backend="both")
        assert (des.backend, perfmodel.backend) == ("des", "perfmodel")
        for result in (des, perfmodel):
            assert dict(result.pe_replicas)["worker"] > 1
