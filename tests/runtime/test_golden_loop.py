"""Golden decision logs for the DES and job substrates of the loop.

The DES runner, the job executor and the perfmodel executor all run
through one :class:`~repro.runtime.loop.ElasticLoop`.  These digests
were recorded before that loop existed and pin what it must not
change:

- the job replica-sweep topology (``src -> work x2 -> snk`` split over
  three PEs, shuffle partitioning, six periods) at ``jobs=1`` and
  ``jobs=2``: every field of every decision record, in order;
- short single-PE DES runs of three closed-loop zoo scenarios: every
  decision field except ``seq``, ``period`` and ``time_s``.  Those
  three are excluded because a standalone DES run now ticks the hub
  clock once per period and logs its observations and changes, which
  gives the decisions real period numbers and shifts their sequence
  numbers;
- the same digest over four open-loop zoo scenarios (ON/OFF bursts
  under ``drop`` and ``block``, a flash crowd, a diurnal Poisson
  envelope), each at its own period count, so the scheduled source
  path is pinned too;
- every other DES zoo scenario, single- and multi-PE, at a three-period
  horizon: every field of every decision record (job and per-PE
  records alike).

Every run also pins the ``des.dropped_tuples`` count its hub recorded,
summed over PE scopes, so a change to what the measurement memo replays
cannot silently change the reported drops, and a coverage test keeps
every DES zoo file pinned.

The digest is blake2b over ``Decision.to_dict()`` as JSON with sorted
keys, one record per line — the method of
``tests/perfmodel/test_golden_decisions.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import replace

import pytest

from repro.bench import cache
from repro.graph.builder import GraphBuilder
from repro.job.executor import JobAdaptationRunner
from repro.job.graph import build_job_graph
from repro.obs.hub import ObservabilityHub
from repro.perfmodel.machine import laptop
from repro.runtime.config import RuntimeConfig
from repro.scenarios import compile_scenario, load_scenario
from repro.scenarios.run import run_on_des
from repro.scenarios.schema import (
    Backend,
    PartitionSpec,
    PartitionStrategy,
    PeSpec,
)

ZOO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "scenarios"
)

JOB_DIGEST = "618fbd4f1561a513e1691b6fb520a34c"
JOB_DECISIONS = 18
DES_PERIODS = 12
# scenario -> (periods, digest)
DES_DIGESTS = {
    "fig07-pipeline-saturated": (
        DES_PERIODS,
        "babad61c7b8d83b3083d286bcf8a1c73",
    ),
    "skewed-cost-pipeline": (
        DES_PERIODS,
        "2c274ccabc25ff861f09578cb3e3bab9",
    ),
    "tree-bushy": (DES_PERIODS, "13a57d72c168201d9c943b559e125df5"),
    "onoff-burst-overflow": (8, "3fa07cae995c8bc0df4a149570420d6e"),
    "onoff-burst-block": (6, "113db09fa891ca8c129b7262244997b7"),
    "flash-crowd-spike": (12, "b70a11ef688549bfbccbfd27661aa106"),
    "diurnal-poisson": (10, "944068ef34e0efb7d0680057320846ad"),
}
# The rest of the DES zoo at ZOO_PERIODS: scenario -> full digest.
ZOO_PERIODS = 3
ZOO_DIGESTS = {
    "custom-asymmetric": "e87f75af0cecd11b64428d7dd02096c8",
    "data-parallel-fan": "6167a3fa7b1c5fbb55052a615a9e08ba",
    "diamond-branches": "fb02a91d73b28f228a8b5ea2c62028d9",
    "fig07-2pe-passthrough": "13cf89f104513ef4a8e50c198df3f841",
    "mixed-grid": "c27071207545e9e0e93eec3a6191f1c5",
    "multi-pe-keyhash-scale": "9692503cefdfb6676a76c27f0b0a5fc3",
    "multi-pe-sink-contention": "a02212722c57939cd9cc022a48ab2a2b",
    "onoff-burst-batched": "42902a1174436da36a260f35fba8ded8",
    "payload-16k-pipeline": "e4752e9fb7385d3039e1136d3ab1013c",
    "payload-mix": "d2f52cbca64506012f78b7f5b2399e4b",
    "payload-mix-batched": "991a22541ab8f4aa5271697abd77ae18",
    "pipeline-smoke": "9be7e8adb3e09c2685c281acf26e3c2b",
    "poisson-underload": "ec3c0dd466acb3ebd8098048dfd96fca",
    "ramp-step-up": "94406d390ab082559d40c823e00c61f3",
}
# Dropped tuples at the horizons above; every other run drops none.
DROPPED = {"onoff-burst-overflow": 120828.0}


def _digest(decisions, drop=()) -> str:
    h = hashlib.blake2b(digest_size=16)
    for d in decisions:
        record = d.to_dict()
        for key in drop:
            del record[key]
        h.update(json.dumps(record, sort_keys=True, default=repr).encode())
        h.update(b"\n")
    return h.hexdigest()


def _dropped(hub) -> float:
    return sum(
        m.value
        for m in hub.registry
        if m.name.endswith("des.dropped_tuples")
    )


def _run_zoo(name, periods, jobs=None):
    scenario = load_scenario(os.path.join(ZOO, f"{name}.yaml"))
    scenario = replace(
        scenario, run=replace(scenario.run, max_periods=periods)
    )
    compiled = compile_scenario(scenario)
    cache.clear()
    hub = ObservabilityHub()
    result = run_on_des(compiled, obs=hub, jobs=jobs)
    cache.clear()
    return compiled, result, hub


def _sweep_job():
    b = GraphBuilder()
    src = b.add_source("src", cost_flops=50.0)
    work = b.add_operator("work", cost_flops=6000.0)
    snk = b.add_sink("snk", cost_flops=1500.0)
    b.chain(src, work, snk)
    pes = (
        PeSpec(name="ingest", operators=("src",)),
        PeSpec(name="worker", operators=("work",), replicas=2),
        PeSpec(name="sinkpe", operators=("snk",)),
    )
    return build_job_graph(
        b.build(), pes, PartitionSpec(strategy=PartitionStrategy.SHUFFLE)
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_job_replica_sweep_log_is_unchanged(jobs):
    cache.clear()
    hub = ObservabilityHub()
    runner = JobAdaptationRunner(
        _sweep_job(),
        laptop(4),
        RuntimeConfig(seed=21),
        warmup_s=0.001,
        measure_s=0.004,
        obs=hub,
        jobs=jobs,
    )
    result = runner.run(max_periods=6, stop_after_stable_periods=None)
    cache.clear()
    assert len(result.trace.observations) == 6
    assert len(hub.decisions()) == JOB_DECISIONS
    assert _digest(hub.decisions()) == JOB_DIGEST


@pytest.mark.parametrize("name", sorted(DES_DIGESTS))
def test_des_decision_content_is_unchanged(name):
    periods, digest = DES_DIGESTS[name]
    compiled, result, hub = _run_zoo(name, periods)
    decisions = hub.decisions()
    assert result.periods == periods
    assert len(decisions) == periods
    assert _digest(decisions, drop=("seq", "period", "time_s")) == digest
    assert _dropped(hub) == DROPPED.get(name, 0.0)
    period_s = compiled.config.elasticity.adaptation_period_s
    assert [d.period for d in decisions] == list(range(periods))
    assert [d.time_s for d in decisions] == [
        k * period_s for k in range(1, periods + 1)
    ]


@pytest.mark.parametrize("name", sorted(ZOO_DIGESTS))
def test_zoo_decision_log_is_unchanged(name):
    _compiled, result, hub = _run_zoo(name, ZOO_PERIODS, jobs=1)
    assert result.periods == ZOO_PERIODS
    assert _digest(hub.decisions()) == ZOO_DIGESTS[name]
    assert _dropped(hub) == DROPPED.get(name, 0.0)


def test_every_des_zoo_scenario_is_pinned():
    des = set()
    for entry in os.listdir(ZOO):
        scenario = load_scenario(os.path.join(ZOO, entry))
        if scenario.run.backend is not Backend.PERFMODEL:
            des.add(os.path.splitext(entry)[0])
    assert des == set(DES_DIGESTS) | set(ZOO_DIGESTS)
