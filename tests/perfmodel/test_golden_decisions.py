"""Golden decision logs for the perfmodel adaptation path.

The perfmodel estimator, the region decomposition and the threading
model carry their own caches; none of them may change a single
decision.  These digests were recorded before those caches existed and
pin the full decision log — every field of every record, in order —
on two runs small enough for the tier-1 suite:

- ``bench.harness.compare`` on PacketAnalysis with one source (387
  operators, all four strategies), the fig15b configuration;
- the fig13 phase-change run (heavy ratio 10 % -> 90 % at 1200 s),
  whose workload swap goes through ``PerformanceModel.invalidate``.

The digest is blake2b over ``Decision.to_dict()`` as JSON with sorted
keys, one record per line — the method of the repository benchmark's
``decision_digest``.
"""

from __future__ import annotations

import hashlib
import json

from repro.apps.packet_analysis import build_packet_analysis, hand_optimized
from repro.apps.workloads import phase_change
from repro.bench import cache
from repro.bench.harness import compare
from repro.obs.hub import ObservabilityHub
from repro.perfmodel import xeon_176
from repro.runtime import RuntimeConfig
from repro.runtime.executor import AdaptationExecutor
from repro.runtime.pe import ProcessingElement

PACKET_1SRC_DIGEST = "2f1e517d1b0bff97587fd19b79342315"
PACKET_1SRC_DECISIONS = 250
FIG13_DIGEST = "8f8f41f43dc7614b1b2ff310e4c76d28"
FIG13_DECISIONS = 800


def _digest(hub: ObservabilityHub) -> str:
    h = hashlib.blake2b(digest_size=16)
    for d in hub.decisions():
        h.update(
            json.dumps(d.to_dict(), sort_keys=True, default=repr).encode()
        )
        h.update(b"\n")
    return h.hexdigest()


def test_packet_analysis_one_source_compare():
    cache.clear()
    machine = xeon_176()
    graph = build_packet_analysis(1)
    assert len(graph) == 387
    hub = ObservabilityHub()
    compare(
        graph,
        machine,
        RuntimeConfig(cores=machine.logical_cores, seed=0),
        hand=hand_optimized(graph),
        workload="PacketAnalysis 1src",
        obs=hub,
    )
    cache.clear()
    assert len(hub.decisions()) == PACKET_1SRC_DECISIONS
    assert _digest(hub) == PACKET_1SRC_DIGEST


def test_fig13_phase_change():
    # bench.figures.fig13_phase_change's defaults, with a hub attached.
    workload = phase_change(
        n_operators=100, change_time_s=1200.0, payload_bytes=1024, seed=0
    )
    machine = xeon_176().with_cores(88)
    pe = ProcessingElement(
        workload.initial,
        machine,
        RuntimeConfig(cores=machine.logical_cores, seed=0),
    )
    hub = ObservabilityHub()
    executor = AdaptationExecutor(
        pe, workload_events=workload.events(), obs=hub
    )
    executor.run(executor.periods_for(4000.0), stop_after_stable_periods=None)
    assert len(hub.decisions()) == FIG13_DECISIONS
    assert _digest(hub) == FIG13_DIGEST
