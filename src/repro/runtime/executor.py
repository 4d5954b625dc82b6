"""Virtual-clock adaptation on the analytical performance model.

:class:`AdaptationExecutor` is the :class:`~repro.runtime.loop.
ElasticLoop` substrate over a simulated :class:`ProcessingElement`:
each period's throughput comes from the performance model (with
measurement noise), so a 1000-second adaptation run finishes in
milliseconds.

Workload schedules (Fig. 13) are supported through ``workload_events``:
a list of ``(time_s, graph)`` pairs; at each event time the PE's graph
is swapped, which the coordinator then detects purely through the
throughput signal.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

from ..core.coordinator import MultiLevelCoordinator
from ..graph.model import StreamGraph
from ..obs.hub import Obs
from .loop import ElasticLoop, ExecutionResult
from .pe import ProcessingElement

__all__ = ["AdaptationExecutor", "ExecutionResult", "run_elastic"]


class AdaptationExecutor(ElasticLoop):
    """Runs the elastic adaptation loop against a simulated PE."""

    converged_window = 8

    def __init__(
        self,
        pe: ProcessingElement,
        coordinator: Optional[MultiLevelCoordinator] = None,
        workload_events: Optional[Sequence[Tuple[float, StreamGraph]]] = None,
        obs: Optional[Obs] = None,
    ) -> None:
        self.pe = pe
        super().__init__(pe.config, obs, workload_events, coordinator)

    # ------------------------------------------------------------------
    # substrate surface
    # ------------------------------------------------------------------
    @property
    def graph(self) -> StreamGraph:
        return self.pe.graph

    @property
    def machine(self):
        return self.pe.machine

    @property
    def threads(self) -> int:
        return self.pe.scheduler_threads

    @property
    def placement(self):
        return self.pe.placement

    def _profile_groups(self):
        return self.pe.profiling_groups()

    def measure(self) -> Tuple[float, float]:
        return self.pe.observe_throughput(), self.pe.true_throughput()

    def _set_graph(self, graph: StreamGraph) -> None:
        self.pe.set_graph(graph)

    def _set_threads(self, n: int) -> None:
        self.pe.set_scheduler_threads(n)

    def _set_placement(self, placement) -> None:
        self.pe.set_placement(placement)


def run_elastic(
    pe: ProcessingElement,
    duration_s: float,
    workload_events: Optional[Sequence[Tuple[float, StreamGraph]]] = None,
    obs: Optional[Obs] = None,
) -> ExecutionResult:
    """Convenience wrapper: adapt ``pe`` for ``duration_s`` of
    simulated time, without an early stop.

    Pass an :class:`~repro.obs.ObservabilityHub` as ``obs`` to record
    metrics and the per-period decision log alongside the trace.
    """
    executor = AdaptationExecutor(
        pe, workload_events=workload_events, obs=obs
    )
    return executor.run(
        executor.periods_for(duration_s), stop_after_stable_periods=None
    )
