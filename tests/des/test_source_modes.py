"""Engine-level digests of every DES source admission mode.

A source thread admits tuples in one of four modes: *saturated* (no
rate cap, no schedule), *paced* by the operator's ``max_rate``, and
*scheduled* by an arrival iterator under the ``block`` or ``drop``
overflow policy.  Each cell below runs one short window of a
four-operator chain (one locked operator behind a queue) in one mode,
with no profiler, the sampled profiler or the fine-grained profiler,
and pins a blake2b digest of everything the run exposes: the
``DesResult`` repr, ``sim.events_processed``, the execution profile
and every registry metric.  A second matrix runs the unprofiled modes
with analytic fast-forward enabled.

A digest change means the engine now simulates a different event
sequence for that mode; a refactor of the source path must leave all
of them unchanged.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.des.channels import ChannelConfig
from repro.des.engine import DesEngine, measure_throughput
from repro.graph.builder import GraphBuilder
from repro.graph.topologies import pipeline
from repro.obs.hub import ObservabilityHub
from repro.perfmodel.machine import laptop
from repro.runtime.queues import QueuePlacement
from repro.scenarios.arrivals import ArrivalProcess
from repro.scenarios.schema import ArrivalKind, ArrivalSpec

WARMUP_S = 0.001
MEASURE_S = 0.004
# Long enough for the fast-forwarder to settle and jump in most modes.
FASTFORWARD_MEASURE_S = 0.05

# mode -> (source max_rate, arrival kind, arrival rate, overflow)
MODES = {
    "saturated": (None, None, None, "block"),
    "paced-2k": (2_000.0, None, None, "block"),
    "paced-200k": (200_000.0, None, None, "block"),
    "deterministic-block": (None, ArrivalKind.DETERMINISTIC, 1.0e6, "block"),
    "deterministic-drop": (None, ArrivalKind.DETERMINISTIC, 1.0e6, "drop"),
    "poisson-block": (None, ArrivalKind.POISSON, 1.0e6, "block"),
    "poisson-drop": (None, ArrivalKind.POISSON, 1.0e6, "drop"),
    "underloaded": (None, ArrivalKind.DETERMINISTIC, 20_000.0, "block"),
}

DIGESTS = {
    ("saturated", "none"): "22ca50ed4701be7cccb84f1abeaced24",
    ("saturated", "sampled"): "bf820159dc7adfc52da8e1ecfb339dee",
    ("saturated", "fine"): "2e3865d1cec93b64b72efb93b5193059",
    ("paced-2k", "none"): "19ac89ac0e788b82c7a63b8bda4cfbf2",
    ("paced-2k", "sampled"): "96d65aef2a5f5d0215ea452e8ce5e8b3",
    ("paced-2k", "fine"): "7ef1a65e66488677101966708af40682",
    ("paced-200k", "none"): "d98f68db19e384d181157005a55e6337",
    ("paced-200k", "sampled"): "04bacd5df0aca01a8b4f3f0ad5e6fe57",
    ("paced-200k", "fine"): "e9dc2d4843ccf1e8c62942629492d1e1",
    ("deterministic-block", "none"): "95e0be6293206708fab5011092910de2",
    ("deterministic-block", "sampled"): "7f1c0c8b9d409916f2393ee0a70a7a2a",
    ("deterministic-block", "fine"): "c957e4f030cc1d5e37e017442fb938b2",
    ("deterministic-drop", "none"): "8afdfd6b4919f9e703a26a1fa31d72e5",
    ("deterministic-drop", "sampled"): "0267f7d314aba8d60a479aad4e660acc",
    ("deterministic-drop", "fine"): "c646d26c3697aa0530e5028cecc08170",
    ("poisson-block", "none"): "0ed343413538fe0678d9adbf3fea45b1",
    ("poisson-block", "sampled"): "59253d4d8850b090da271edd4dbc67c3",
    ("poisson-block", "fine"): "ffc867c22ef828ab9d901fddaf7b9b0a",
    ("poisson-drop", "none"): "5c725a69fcc05b3fe2cfc913c7ccec7a",
    ("poisson-drop", "sampled"): "8e5a9413cd7ccb09aa0e9bdd7dc21b2d",
    ("poisson-drop", "fine"): "23e74e1057eb43dda754ae66712b719b",
    ("underloaded", "none"): "592cf0307e3186940eadefed41b8138f",
    ("underloaded", "sampled"): "c3c75cf0137ea68a32619452e226a623",
    ("underloaded", "fine"): "06306b116759897ad8df97c3d710f2d4",
}

FASTFORWARD_DIGESTS = {
    "saturated": "812d2d06e224713cd92cca42dd95338c",
    "paced-2k": "24b0d005750f0ceed4782104139dd50a",
    "paced-200k": "b0e96a8fd63bc21ae880b12917cb5072",
    "deterministic-block": "2d610e2ddebbbaf914d6b58036bd244d",
    "deterministic-drop": "3d2d1fba2eaf46886cbb1d6e5af4f7a7",
    "poisson-block": "df3e553d34aedc45383fbb7495c107b4",
    "poisson-drop": "5a4c916a514ef92e99d3aaa23c8f9686",
    "underloaded": "67341123eb0c1aa1042298b0c7aad1d6",
}


def _chain(max_rate):
    b = GraphBuilder(name="modes", payload_bytes=64)
    src = b.add_source("src", cost_flops=400.0, max_rate=max_rate)
    work = b.add_operator("work", cost_flops=2500.0, uses_lock=True)
    agg = b.add_operator("agg", cost_flops=1200.0)
    snk = b.add_sink("snk", cost_flops=300.0, uses_lock=False)
    b.chain(src, work, agg, snk)
    return b.build()


def _run(mode: str, profiler: str, channel=None, measure_s=MEASURE_S) -> str:
    max_rate, kind, rate, overflow = MODES[mode]
    graph = _chain(max_rate)
    arrivals = None
    if kind is not None:
        process = ArrivalProcess(ArrivalSpec(kind=kind, rate=rate), seed=5)
        arrivals = {graph.sources[0].index: process.arrival_stream(0.0)}
    hub = ObservabilityHub()
    engine = DesEngine(
        graph,
        laptop(4),
        QueuePlacement.of([1, 3]),
        2,
        queue_capacity=8,
        obs=hub,
        arrivals=arrivals,
        overflow=overflow,
        channel=channel,
    )
    prof = None
    if profiler != "none":
        prof = engine.attach_profiler(
            period_s=measure_s / 200, sampled=profiler == "sampled"
        )
    result = engine.run(warmup_s=WARMUP_S, measure_s=measure_s)
    h = hashlib.blake2b(digest_size=16)
    h.update(repr(result).encode())
    h.update(str(engine.sim.events_processed).encode())
    if prof is not None:
        h.update(repr(prof.profile(len(graph))).encode())
    h.update(
        json.dumps(hub.registry.snapshot(), sort_keys=True).encode()
    )
    return h.hexdigest()


@pytest.mark.parametrize("mode, profiler", sorted(DIGESTS))
def test_source_mode_digest(mode, profiler):
    assert _run(mode, profiler) == DIGESTS[(mode, profiler)]


@pytest.mark.parametrize("mode", sorted(FASTFORWARD_DIGESTS))
def test_source_mode_digest_under_fastforward(mode):
    channel = ChannelConfig(fastforward=True)
    digest = _run(mode, "none", channel, FASTFORWARD_MEASURE_S)
    assert digest == FASTFORWARD_DIGESTS[mode]


def test_finite_schedule_raises_instead_of_reporting_a_deadlock():
    graph = pipeline(3, cost_flops=100.0, payload_bytes=64)
    schedule = iter([1e-4 * i for i in range(50)])
    with pytest.raises(ValueError, match=r"arrival schedule of source 0"):
        measure_throughput(
            graph,
            laptop(cores=4),
            QueuePlacement.full(graph),
            2,
            arrivals={0: schedule},
        )


def test_finite_schedule_raises_from_the_burst_lookahead():
    # Arrivals far denser than the source's per-tuple cost are drawn
    # by the burst lookahead, not the top-of-loop wait.
    graph = pipeline(3, cost_flops=100.0, payload_bytes=64)
    schedule = iter([0.0] * 5)
    with pytest.raises(ValueError, match=r"ended at t=0\.0"):
        measure_throughput(
            graph,
            laptop(cores=4),
            QueuePlacement.full(graph),
            2,
            arrivals={0: schedule},
        )
