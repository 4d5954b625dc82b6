"""Per-layer tracing from outside the program.

For the traced run only, :class:`Tracer` replaces each layer's public
entry points with timing wrappers and restores the originals on exit.
A wrapped call records a :class:`~metrics.Span` (name, start, end,
enclosing span); a count-only wrapper just counts calls.  Module-level
functions are replaced in every ``repro`` module that imported them,
so ``from ..runtime.regions import decompose`` call sites are traced
too.  Nothing under ``src/`` changes.

Spans recorded inside forked pool workers stay in the workers: the
multi-PE workload traces its in-PE layers at jobs=1 (see run.py).
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from metrics import Span

# (span name, module, attribute path[, probe]).  A probe maps the call's
# positional arguments to {counter name: value}; the difference between
# its values after and before the call is added to the tracer's counts.
SPANS: Tuple[Tuple, ...] = (
    (
        "des.kernel",
        "repro.des.kernel",
        "Simulator.run_until",
        lambda a: {"des.kernel.events": a[0].events_processed},
    ),
    ("des.engine", "repro.des.engine", "DesEngine.run"),
    ("des.engine.build", "repro.des.engine", "DesEngine.__init__"),
    ("des.engine.build", "repro.des.engine", "DesEngine.start"),
    (
        "des.fastforward",
        "repro.des.fastforward",
        "FastForwarder.run_window",
        lambda a: {
            "des.fastforward.jumps": a[0].jumps,
            "des.fastforward.events_saved": a[0].events_saved,
        },
    ),
    ("des.adaptation", "repro.des.adaptation", "DesAdaptationRunner.step_period"),
    ("bench.cache", "repro.bench.cache", "lookup"),
    ("core.coordinator", "repro.core.coordinator", "MultiLevelCoordinator.step"),
    ("core.threading_model", "repro.core.threading_model", "ThreadingModelElasticity.step"),
    ("core.threading_model", "repro.core.threading_model", "ThreadingModelElasticity.begin_phase"),
    ("core.threading_model", "repro.core.threading_model", "ThreadingModelElasticity.set_groups"),
    ("core.profiler", "repro.core.profiler", "SamplingProfiler.profile"),
    ("perfmodel.throughput", "repro.perfmodel.throughput", "PerformanceModel.estimate"),
    ("runtime.regions", "repro.runtime.regions", "decompose"),
    ("job.executor", "repro.job.executor", "JobAdaptationRunner.step_period"),
    ("job.coordinator", "repro.job.coordinator", "JobCoordinator.step"),
    ("runtime.pool.start", "repro.runtime.pool", "WorkerPool.__init__"),
    ("runtime.pool.submit", "repro.runtime.pool", "WorkerPool.submit"),
    ("runtime.pool.recv", "repro.runtime.pool", "WorkerPool.recv"),
    ("scenarios.arrivals", "repro.scenarios.arrivals", "ArrivalProcess.segments"),
    ("scenarios.arrivals", "repro.scenarios.arrivals", "ArrivalProcess.arrival_stream"),
)

# (count name, module, attribute path): calls counted, not timed.
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("obs.registry.incs", "repro.obs.registry", "Counter.inc"),
)


class Tracer:
    """Installs the wrappers on ``__enter__`` and removes them on
    ``__exit__``; spans and counts accumulate across the block."""

    def __init__(
        self,
        spans: Sequence[Tuple] = SPANS,
        counts: Sequence[Tuple[str, str, str]] = COUNTS,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self._span_specs = spans
        self._count_specs = counts
        self._clock = clock
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._stack: List[int] = []
        # (owner, attribute, original) to undo, in install order.
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    def _timed(self, name: str, fn: Callable, probe: Optional[Callable]):
        spans, stack, counts, clock = (
            self.spans,
            self._stack,
            self.counts,
            self._clock,
        )

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            before = probe(args) if probe is not None else None
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = Span(name, start, end, parent)
                if before is not None:
                    for key, value in probe(args).items():
                        counts[key] += value - before[key]

        return wrapper

    def _counted(self, name: str, fn: Callable):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _install(self, module_name: str, path: str, make: Callable) -> None:
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        if owner_path:
            owner = module
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patch(owner, attr, make(original))
            return
        original = getattr(module, attr)
        wrapper = make(original)
        # A module-level function is also bound wherever it was
        # imported by name; replace every such binding.
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "repro" or mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self) -> "Tracer":
        try:
            for spec in self._span_specs:
                name, module_name, path = spec[:3]
                probe = spec[3] if len(spec) > 3 else None
                self._install(
                    module_name,
                    path,
                    lambda fn, n=name, p=probe: self._timed(n, fn, p),
                )
            for name, module_name, path in self._count_specs:
                self._install(
                    module_name, path, lambda fn, n=name: self._counted(n, fn)
                )
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.restore()

    def restore(self) -> None:
        """Put every original back (last patched, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def finished_spans(self) -> List[Span]:
        """Spans of completed calls (an open call has no end yet)."""
        return [s for s in self.spans if s is not None]
