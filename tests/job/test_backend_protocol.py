"""ElasticLoop: every substrate runs through the same loop surface."""

from __future__ import annotations

import pytest

from repro.bench import cache
from repro.graph import pipeline
from repro.job.executor import JobAdaptationRunner
from repro.job.graph import build_job_graph
from repro.perfmodel import laptop
from repro.runtime import ProcessingElement, RuntimeConfig
from repro.runtime.executor import AdaptationExecutor
from repro.runtime.loop import ElasticLoop, ExecutionResult
from repro.des.adaptation import DesAdaptationRunner
from repro.scenarios.schema import PeSpec


@pytest.fixture
def pipe4():
    return pipeline(4, cost_flops=1000.0, payload_bytes=128)


def _perfmodel(graph, config=None, obs=None):
    config = config if config is not None else RuntimeConfig(seed=3)
    return AdaptationExecutor(
        ProcessingElement(graph, laptop(4), config), obs=obs
    )


def test_des_runner_is_a_backend(pipe4):
    runner = DesAdaptationRunner(pipe4, laptop(4), RuntimeConfig(seed=3))
    assert isinstance(runner, ElasticLoop)


def test_job_runner_is_a_backend(pipe4):
    job = build_job_graph(
        pipe4,
        (
            PeSpec(name="a", operators=("src", "op0", "op1")),
            PeSpec(name="b", operators=("op2", "op3", "snk")),
        ),
    )
    runner = JobAdaptationRunner(job, laptop(4), RuntimeConfig(seed=3))
    assert isinstance(runner, ElasticLoop)


def test_perfmodel_adapter_is_a_backend(pipe4):
    assert isinstance(_perfmodel(pipe4), ElasticLoop)


@pytest.mark.parametrize("substrate", ["des", "perfmodel"])
def test_backends_return_conforming_results(pipe4, substrate):
    cache.clear()
    if substrate == "des":
        runner = DesAdaptationRunner(
            pipe4,
            laptop(4),
            RuntimeConfig(seed=3),
            warmup_s=0.001,
            measure_s=0.004,
        )
    else:
        runner = _perfmodel(pipe4)
    result = runner.run(max_periods=4, stop_after_stable_periods=None)
    assert isinstance(result, ExecutionResult)
    assert result.final_threads >= 1
    assert result.final_n_queues >= 0
    assert result.converged_throughput > 0
    assert len(result.trace.observations) == 4


def test_job_result_conforms(pipe4):
    cache.clear()
    job = build_job_graph(
        pipe4,
        (
            PeSpec(name="a", operators=("src", "op0", "op1")),
            PeSpec(name="b", operators=("op2", "op3", "snk")),
        ),
    )
    runner = JobAdaptationRunner(
        job,
        laptop(4),
        RuntimeConfig(seed=3),
        warmup_s=0.001,
        measure_s=0.004,
    )
    result = runner.run(max_periods=3, stop_after_stable_periods=None)
    assert len(result.trace.observations) == 3
    assert result.final_threads >= 1
    assert result.final_n_queues >= 0
    assert result.converged_throughput > 0


def test_perfmodel_adapter_converts_periods_to_duration(pipe4):
    config = RuntimeConfig(seed=3)
    runner = _perfmodel(pipe4, config)
    period_s = config.elasticity.adaptation_period_s
    result = runner.run(max_periods=4, stop_after_stable_periods=None)
    assert [o.time_s for o in result.trace.observations] == [
        k * period_s for k in range(1, 5)
    ]
    # Callers that think in seconds convert once, to covering periods.
    assert runner.periods_for(10 * period_s) == 10
    assert runner.periods_for(2 * period_s + 0.5) == 3


def test_make_backend_dispatch(tmp_path):
    """The scenario-level factory picks the right substrate."""
    from repro.scenarios import compile_scenario, load_scenario
    from repro.scenarios.run import make_backend

    des = compile_scenario(
        load_scenario("scenarios/pipeline-smoke.yaml")
    )
    job = compile_scenario(
        load_scenario("scenarios/fig07-2pe-passthrough.yaml")
    )
    perfmodel = compile_scenario(
        load_scenario("scenarios/diurnal-perfmodel.yaml")
    )
    assert isinstance(make_backend(des), DesAdaptationRunner)
    assert isinstance(make_backend(job), JobAdaptationRunner)
    assert isinstance(make_backend(perfmodel), AdaptationExecutor)


# ----------------------------------------------------------------------
# warm-start conformance: one spec, three substrates
# ----------------------------------------------------------------------
def _job(pipe4):
    return build_job_graph(
        pipe4,
        (
            PeSpec(name="a", operators=("src", "op0", "op1")),
            PeSpec(name="b", operators=("op2", "op3", "snk")),
        ),
    )


def _make(substrate, pipe4, hub=None):
    if substrate == "des":
        return DesAdaptationRunner(
            pipe4,
            laptop(4),
            RuntimeConfig(seed=3),
            warmup_s=0.001,
            measure_s=0.004,
            obs=hub,
        )
    if substrate == "job":
        return JobAdaptationRunner(
            _job(pipe4),
            laptop(4),
            RuntimeConfig(seed=3),
            warmup_s=0.001,
            measure_s=0.004,
            obs=hub,
        )
    return _perfmodel(pipe4, obs=hub)


SUBSTRATES = ["des", "perfmodel", "job"]


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_every_backend_accepts_warm_start_hints(substrate, pipe4, tmp_path):
    """The same WarmStartSpec drives every substrate through the
    protocol surface, and the warm entry shows up in the decisions."""
    from repro.core.warmstart import WarmStartSpec
    from repro.obs.hub import ObservabilityHub

    cache.clear()
    hub = ObservabilityHub()
    runner = _make(substrate, pipe4, hub=hub)
    runner.set_warm_start(
        WarmStartSpec(mode="model", store_dir=str(tmp_path))
    )
    result = runner.run(max_periods=4, stop_after_stable_periods=None)
    assert len(result.trace.observations) >= 1
    warm_rules = {
        d.rule for d in hub.decisions() if d.rule.startswith("F7-WARM")
    }
    assert "F7-WARM-START" in warm_rules


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_disabled_warm_start_is_byte_identical(substrate, pipe4):
    """mode="off" (and a cleared session) must leave the decision log
    byte-identical to a runner that never heard of warm starts."""
    from repro.core.warmstart import WarmStartSpec
    from repro.obs.hub import ObservabilityHub

    def decisions(**kw):
        cache.clear()
        hub = ObservabilityHub()
        runner = _make(substrate, pipe4, hub=hub)
        spec = kw.get("spec")
        if spec is not None:
            runner.set_warm_start(spec)
        runner.run(max_periods=5, stop_after_stable_periods=None)
        return tuple(
            (d.scope, d.rule, d.set_threads, d.set_n_queues)
            for d in hub.decisions()
        )

    stock = decisions()
    assert decisions(spec=WarmStartSpec(mode="off")) == stock
    assert decisions(spec=None) == stock


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_phase_store_round_trips_through_every_backend(
    substrate, pipe4, tmp_path
):
    """history mode: a converged run populates the store and a fresh
    runner snaps back instead of re-exploring."""
    from repro.core.warmstart import WarmStartSpec
    from repro.obs.hub import ObservabilityHub

    spec = WarmStartSpec(mode="auto", store_dir=str(tmp_path))

    def run_once():
        cache.clear()
        hub = ObservabilityHub()
        runner = _make(substrate, pipe4, hub=hub)
        runner.set_warm_start(spec)
        result = runner.run(max_periods=60, stop_after_stable_periods=8)
        return result, hub

    first, _ = run_once()
    second, hub2 = run_once()
    rules2 = {d.rule for d in hub2.decisions()}
    assert "F7-WARM-SNAP" in rules2
    assert len(second.trace.observations) <= len(
        first.trace.observations
    )
