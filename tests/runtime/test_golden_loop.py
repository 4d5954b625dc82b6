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
  path is pinned too.

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
from repro.scenarios.schema import PartitionSpec, PartitionStrategy, PeSpec

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


def _digest(decisions, drop=()) -> str:
    h = hashlib.blake2b(digest_size=16)
    for d in decisions:
        record = d.to_dict()
        for key in drop:
            del record[key]
        h.update(json.dumps(record, sort_keys=True, default=repr).encode())
        h.update(b"\n")
    return h.hexdigest()


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
    scenario = load_scenario(os.path.join(ZOO, f"{name}.yaml"))
    scenario = replace(
        scenario, run=replace(scenario.run, max_periods=periods)
    )
    compiled = compile_scenario(scenario)
    cache.clear()
    hub = ObservabilityHub()
    result = run_on_des(compiled, obs=hub)
    cache.clear()
    decisions = hub.decisions()
    assert result.periods == periods
    assert len(decisions) == periods
    assert _digest(decisions, drop=("seq", "period", "time_s")) == digest
    period_s = compiled.config.elasticity.adaptation_period_s
    assert [d.period for d in decisions] == list(range(periods))
    assert [d.time_s for d in decisions] == [
        k * period_s for k in range(1, periods + 1)
    ]
