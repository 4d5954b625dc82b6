"""Parallel multi-PE execution is byte-identical to sequential.

The job executor's ``jobs > 1`` path fans PEs across a sticky
:class:`~repro.runtime.pool.WorkerPool` and re-homes every
worker-side effect — decisions, scoped metrics, memo cells — into the
parent in deterministic PE order.  The guarantee is *byte identity*,
not statistical agreement: on every multi-PE zoo scenario the merged
decision log (including hub-assigned seq numbers and scopes), the
metric snapshot, the memo-cache key set and the throughput trace must
match a sequential run exactly.  Anything weaker would make ``--jobs``
a semantics switch instead of a performance switch.
"""

from __future__ import annotations

import io
from dataclasses import replace

import pytest

from repro.bench import cache
from repro.obs.exporters import prometheus_text, write_jsonl
from repro.obs.hub import ObservabilityHub
from repro.runtime.pool import WorkerPoolError
from repro.scenarios.compile import compile_scenario
from repro.scenarios.schema import Backend
from repro.scenarios.run import make_backend
from repro.scenarios.zoo import load_named

ZOO_MULTI_PE = (
    "fig07-2pe-passthrough",
    "multi-pe-keyhash-scale",
    "multi-pe-sink-contention",
)


def _run(name, jobs, warm=False, warm_start=None, backend=None):
    """One full zoo run at the given pool width; cold cache unless
    ``warm`` (memoization reuse is part of the regression surface).
    ``backend`` overrides the scenario's ``run.backend``."""
    if not warm:
        cache.clear()
    scenario = load_named(name)
    if backend is not None:
        scenario = replace(
            scenario, run=replace(scenario.run, backend=Backend(backend))
        )
    compiled = compile_scenario(scenario)
    hub = ObservabilityHub()
    runner = make_backend(
        compiled, obs=hub, jobs=jobs, warm_start=warm_start
    )
    spec = compiled.scenario.run
    result = runner.run(
        max_periods=spec.max_periods,
        stop_after_stable_periods=spec.stop_after_stable_periods,
    )
    return runner, result, hub


def _signature(result, hub):
    """Everything an observer could diff between two runs."""
    return (
        tuple(hub.decisions()),
        hub.registry.snapshot(),
        frozenset(cache._STORE),
        dict(result.final_replicas),
        result.final_threads,
        result.final_n_queues,
        [o.throughput for o in result.trace.observations],
        [o.threads for o in result.trace.observations],
    )


class TestByteIdentity:
    @pytest.mark.parametrize("name", ZOO_MULTI_PE)
    def test_parallel_matches_sequential(self, name):
        _seq, seq_result, seq_hub = _run(name, jobs=1)
        seq_sig = _signature(seq_result, seq_hub)
        par, par_result, par_hub = _run(name, jobs=2)
        # The pool actually engaged — a silent sequential fallback
        # would make this test vacuous.
        assert par._pe_results is not None
        assert _signature(par_result, par_hub) == seq_sig

    @pytest.mark.parametrize("name", ZOO_MULTI_PE)
    def test_perfmodel_parallel_matches_sequential(self, name):
        _seq, seq_result, seq_hub = _run(name, jobs=1, backend="perfmodel")
        assert seq_hub.decisions()
        par, par_result, par_hub = _run(name, jobs=2, backend="perfmodel")
        assert par._pe_results is not None
        assert _signature(par_result, par_hub) == _signature(
            seq_result, seq_hub
        )

    def test_parallel_run_on_warm_cache_matches(self):
        name = ZOO_MULTI_PE[0]
        _run(name, jobs=1)  # prime the memo cache
        # Warm baseline: memo hits skip simulation, which legitimately
        # shifts sim-event metrics vs a cold run, so the parallel warm
        # run is held against a *sequential warm* run.
        _seq, seq_result, seq_hub = _run(name, jobs=1, warm=True)
        seq_sig = _signature(seq_result, seq_hub)
        # Workers inherit the warm cache at fork and ship back nothing
        # new; the parent's key set must not drift either.
        before = frozenset(cache._STORE)
        par, par_result, par_hub = _run(name, jobs=2, warm=True)
        assert par._pe_results is not None
        assert _signature(par_result, par_hub) == seq_sig
        assert frozenset(cache._STORE) == before

    def test_warm_started_exports_match(self):
        # Pool workers receive the warm-start spec at init and install
        # it after building their runners, as the parent does: the
        # JSONL log and the Prometheus text must not move.
        def exports(jobs):
            runner, _result, hub = _run(
                ZOO_MULTI_PE[0], jobs=jobs, warm_start="model"
            )
            buf = io.StringIO()
            write_jsonl(hub.records(), buf)
            return runner, buf.getvalue(), prometheus_text(hub.registry)

        _seq, *seq_exports = exports(1)
        par, *par_exports = exports(2)
        assert par._pe_results is not None
        assert "F7-WARM-START" in seq_exports[0]
        assert par_exports == seq_exports

    @pytest.mark.parametrize("name", ZOO_MULTI_PE)
    def test_per_pe_results_match(self, name):
        _seq, seq_result, _h1 = _run(name, jobs=1)
        _par, par_result, _h2 = _run(name, jobs=2)
        assert (
            seq_result.pe_results.keys() == par_result.pe_results.keys()
        )
        for pe_name, seq_pe in seq_result.pe_results.items():
            par_pe = par_result.pe_results[pe_name]
            assert par_pe.final_threads == seq_pe.final_threads
            assert par_pe.final_n_queues == seq_pe.final_n_queues
            assert par_pe.final_placement == seq_pe.final_placement
            assert [
                (o.throughput, o.threads, o.n_queues)
                for o in par_pe.trace.observations
            ] == [
                (o.throughput, o.threads, o.n_queues)
                for o in seq_pe.trace.observations
            ]


def _crash_step(state, pe_name, k, rates):
    import os

    os._exit(23)


class TestWorkerCrash:
    def test_crash_surfaces_as_worker_pool_error(self, monkeypatch):
        cache.clear()
        compiled = compile_scenario(load_named(ZOO_MULTI_PE[0]))
        runner = make_backend(compiled, obs=None, jobs=2)
        monkeypatch.setattr("repro.job.parallel._step_pe", _crash_step)
        with pytest.raises(WorkerPoolError):
            runner.run(max_periods=4, stop_after_stable_periods=None)
        # The failed session is torn down, not leaked.
        assert runner._session is None
