"""The elastic loop: observe → decide → apply → trace, once.

The paper's adaptation thread (§3.2–3.3, Fig. 7) wakes every
adaptation period, reads the PE's throughput, steps the multi-level
coordinator and applies the configuration it returns.
:class:`ElasticLoop` is that thread, written once for every
substrate.  It owns:

- the period clock — period ``k`` (1-based) ends at ``k · period_s``;
- workload events — ``(time_s, graph)`` swaps applied when due;
- the hub clock and trace — one ``hub.tick`` per period, then the
  observation, the coordinator's decision and any thread or placement
  change, in that causal order;
- applying the action, recording only real changes;
- the stable-streak stop and result packaging;
- warm start, built from the substrate's graph and phase token.

A substrate subclasses it and supplies the rest: ``measure()`` returns
the period's ``(observed, true)`` throughput, ``threads``,
``placement``, ``graph`` and ``machine`` describe the current
configuration, and ``_set_graph``/``_set_threads``/``_set_placement``
change it.  The substrates are the analytical model
(:class:`~repro.runtime.executor.AdaptationExecutor`) and the
tuple-level DES (:class:`~repro.des.adaptation.DesAdaptationRunner`);
the multi-PE job runner keeps its own lockstep ``step_period`` and
reuses :meth:`ElasticLoop.run`.

Only a loop that owns its hub moves the clock.  Inside a job every PE
runner gets a :func:`~repro.obs.scope.scoped` view, whose ``tick`` and
trace-event methods record nothing: the job ticks once per period and
per-PE observations stay out of the shared log.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import List, Optional, Sequence, Tuple

from ..core.coordinator import MultiLevelCoordinator
from ..obs.hub import Obs, ensure_hub
from .config import RuntimeConfig
from .events import AdaptationTrace
from .queues import QueuePlacement


@dataclass(frozen=True)
class ExecutionResult:
    """Outcome of an elastic run on one PE."""

    trace: AdaptationTrace
    final_threads: int
    final_placement: QueuePlacement
    final_dynamic_ratio: float
    converged_throughput: float

    @property
    def final_n_queues(self) -> int:
        return self.final_placement.n_queues


class ElasticLoop:
    """One adaptation thread over a pluggable substrate."""

    # Trailing observations averaged into ``converged_throughput``.
    converged_window = 4

    def __init__(
        self,
        config: RuntimeConfig,
        obs: Optional[Obs] = None,
        workload_events: Optional[Sequence[Tuple[float, object]]] = None,
        coordinator=None,
    ) -> None:
        self.config = config
        self._hub = ensure_hub(obs)
        if coordinator is None:
            coordinator = MultiLevelCoordinator(
                config=config.elasticity,
                max_threads=config.effective_max_threads,
                profile_provider=self._profile_groups,
                seed=config.seed,
                obs=self._hub,
            )
        self.coordinator = coordinator
        self._workload_events = sorted(
            workload_events or [], key=lambda ev: ev[0]
        )
        self._warm_spec = None
        self.trace = AdaptationTrace.empty()
        self._events_left: List[tuple] = []

    @property
    def period_s(self) -> float:
        return self.config.elasticity.adaptation_period_s

    def periods_for(self, duration_s: float) -> int:
        """Periods that cover ``duration_s`` of simulated time."""
        if duration_s <= 0:
            raise ValueError(f"duration_s must be > 0, got {duration_s}")
        return ceil(duration_s / self.period_s)

    @property
    def is_stable(self) -> bool:
        return self.coordinator.is_stable

    # ------------------------------------------------------------------
    # warm start
    # ------------------------------------------------------------------
    def _phase_token(self):
        """Workload-phase component of the warm-start store key; a
        steady-state substrate has one phase."""
        return "steady"

    def set_warm_start(self, spec) -> None:
        """Install (or clear, with None) the warm-start policy.  The
        graph is read lazily because workload events swap it."""
        from ..core.warmstart import make_runner_session

        self._warm_spec = spec
        self.coordinator.set_warm_start(
            make_runner_session(
                spec,
                graph_fn=lambda: self.graph,
                machine=self.machine,
                config=self.config,
                phase_token=self._phase_token,
                obs=self._hub,
            )
        )

    # ------------------------------------------------------------------
    # the loop
    # ------------------------------------------------------------------
    def begin_run(self) -> None:
        """Reset per-run state ahead of a sequence of
        :meth:`step_period` calls (``run`` calls this itself)."""
        self.trace = AdaptationTrace.empty()
        self._events_left = list(self._workload_events)

    def end_run(self) -> None:
        """Release per-run resources; ``run`` calls this even when a
        period raises."""

    def step_period(self, k: int) -> float:
        """Adaptation period ``k`` (1-based): apply due workload
        events, measure, record the observation, step the coordinator
        and apply its action.  Returns the observed throughput."""
        time_s = k * self.period_s
        events = self._events_left
        while events and events[0][0] <= time_s:
            self._set_graph(events.pop(0)[1])
        observed, true = self.measure()
        hub = self._hub
        # The clock advances first so the period's observation, the
        # decision and any resulting changes share one period of the
        # log, in causal order (observation < decision < change).
        hub.tick(time_s)
        self.trace.observations.append(
            hub.observation(
                time_s=time_s,
                throughput=observed,
                true_throughput=true,
                threads=self.threads,
                n_queues=self.placement.n_queues,
                mode=self.coordinator.mode.value,
            )
        )
        action = self.coordinator.step(observed)
        if action.set_threads is not None and (
            action.set_threads != self.threads
        ):
            self.trace.thread_changes.append(
                hub.thread_change(
                    time_s=time_s,
                    old_threads=self.threads,
                    new_threads=action.set_threads,
                )
            )
            self._set_threads(action.set_threads)
        if action.set_placement is not None and (
            action.set_placement.queued != self.placement.queued
        ):
            self.trace.placement_changes.append(
                hub.placement_change(
                    time_s=time_s,
                    old_n_queues=self.placement.n_queues,
                    new_n_queues=action.set_placement.n_queues,
                )
            )
            self._set_placement(action.set_placement)
        return observed

    def run(
        self,
        max_periods: int = 120,
        stop_after_stable_periods: Optional[int] = 8,
    ):
        """Drive the loop for up to ``max_periods`` periods.

        With ``stop_after_stable_periods`` set, the run ends early once
        the controller has been stable for that many consecutive
        periods with no workload event still pending.
        """
        if max_periods < 1:
            raise ValueError(f"max_periods must be >= 1, got {max_periods}")
        try:
            self.begin_run()
            stable_streak = 0
            for k in range(1, max_periods + 1):
                self.step_period(k)
                if stop_after_stable_periods is None or self._events_left:
                    continue
                stable_streak = stable_streak + 1 if self.is_stable else 0
                if stable_streak >= stop_after_stable_periods:
                    break
            return self.result()
        finally:
            self.end_run()

    def result(self):
        """Package the run state accumulated so far."""
        return ExecutionResult(
            trace=self.trace,
            final_threads=self.threads,
            final_placement=self.placement,
            final_dynamic_ratio=self.placement.dynamic_ratio(self.graph),
            converged_throughput=self.trace.final_throughput(
                window=self.converged_window
            ),
        )
