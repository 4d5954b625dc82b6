"""Scoped observability views for multi-PE jobs.

A multi-PE job runs several per-PE controller stacks against ONE
:class:`~repro.obs.hub.ObservabilityHub`, so the job's whole causal
story lands in a single sequence-ordered log.  To keep the streams
apart, each PE's components receive a :class:`ScopedObs` view of the
shared hub instead of the hub itself:

- metric names gain a dotted prefix (``pe.ingest.des.sink_tuples``),
  so per-PE counters never collide in the shared registry;
- decisions are tagged with the scope
  (:attr:`~repro.obs.decisions.Decision.scope`), so one PE's R1-R5
  trace is recoverable from the merged log with a filter — the
  property the multi-PE equivalence tests pin;
- a scoped view does not own the clock: the job ticks the shared hub
  once per period, so the view's :meth:`~ScopedObs.tick` and its
  trace-event methods record nothing (per-PE observations and changes
  stay in each runner's own trace, out of the shared log), while
  decisions forward to the hub and keep its total ordering across PEs.

Scopes nest: scoping an already-scoped view concatenates the prefixes
(``pe.ingest`` then ``profiler`` gives ``pe.ingest.profiler``).  The
null hub scopes to itself — detached multi-PE runs stay free.
"""

from __future__ import annotations

from typing import Optional, Tuple

from .decisions import Decision, LoggedEvent
from .hub import NULL_HUB, Obs, ensure_hub
from .registry import MetricsRegistry


class ScopedRegistry:
    """Prefixing facade over a shared :class:`MetricsRegistry`."""

    def __init__(self, registry: MetricsRegistry, prefix: str) -> None:
        self._registry = registry
        self._prefix = prefix

    def _name(self, name: str) -> str:
        return f"{self._prefix}.{name}"

    def counter(self, name: str, description: str = ""):
        return self._registry.counter(self._name(name), description)

    def gauge(self, name: str, description: str = ""):
        return self._registry.gauge(self._name(name), description)

    def histogram(self, name: str, *args, **kwargs):
        return self._registry.histogram(self._name(name), *args, **kwargs)

    def get(self, name: str):
        return self._registry.get(self._name(name))


class ScopedObs:
    """A hub view that namespaces metrics and tags decisions.

    Duck-typed to the :data:`~repro.obs.hub.Obs` interface, so any
    component taking ``obs`` works unchanged inside a job.
    """

    def __init__(self, obs: Optional[Obs], scope: str) -> None:
        base = ensure_hub(obs)
        if isinstance(base, ScopedObs):
            scope = f"{base.scope}.{scope}"
            base = base.hub
        self.hub = base
        self.scope = scope
        self.enabled = base.enabled
        self.registry = ScopedRegistry(base.registry, scope)

    # ------------------------------------------------------------------
    # clock (read from the job's hub, never advanced by a view)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self.hub.now

    @property
    def period(self) -> int:
        return self.hub.period

    def tick(self, time_s: float) -> None:
        pass

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def decision(self, **kwargs):
        kwargs.setdefault("scope", self.scope)
        return self.hub.decision(**kwargs)

    observation = staticmethod(NULL_HUB.observation)
    thread_change = staticmethod(NULL_HUB.thread_change)
    placement_change = staticmethod(NULL_HUB.placement_change)

    # ------------------------------------------------------------------
    # reading (decisions filtered to this scope; events shared)
    # ------------------------------------------------------------------
    def records(self):
        return self.hub.records()

    def decisions(self) -> Tuple[Decision, ...]:
        return tuple(
            d for d in self.hub.decisions() if d.scope == self.scope
        )

    def events(self, kind: Optional[str] = None) -> Tuple[LoggedEvent, ...]:
        return self.hub.events(kind)

    def clear(self) -> None:
        self.hub.clear()


def scoped(obs: Optional[Obs], scope: str):
    """Scope a hub view, short-circuiting the null hub (detached runs
    pay nothing for scoping)."""
    base = ensure_hub(obs)
    if base is NULL_HUB:
        return NULL_HUB
    return ScopedObs(base, scope)
