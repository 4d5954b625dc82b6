"""Derived metrics of the benchmark: pure functions over recorded data.

Everything here is arithmetic on values the workloads and the tracer
already collected, so each definition can be tested on its own
(``perfbench/tests/test_metrics.py``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Sequence

# Settling band: throughput within 5 % of the converged value (the
# paper's SENS, and the ``_settling`` definition of
# benchmarks/test_warmstart.py).
SENS = 0.05
# Converged throughput is the mean of the last CONVERGED_WINDOW
# observations, as in ``_settling``.
CONVERGED_WINDOW = 4


def settling_periods(throughputs: Sequence[float], sens: float = SENS) -> int:
    """Periods until throughput enters the SENS band of the converged
    value and stays there (1-based; ``len`` if it never settles).

    The converged value is the mean of the last CONVERGED_WINDOW
    observations.  An empty trace settles in 0 periods.
    """
    obs = list(throughputs)
    if not obs:
        return 0
    tail = obs[-CONVERGED_WINDOW:]
    conv = sum(tail) / len(tail)
    if conv == 0.0:
        return len(obs)
    # Scan from the end: the answer is one past the last period that
    # falls outside the band.
    for i in range(len(obs) - 1, -1, -1):
        if abs(obs[i] / conv - 1.0) > sens:
            return min(i + 2, len(obs))
    return 1


def geomean(values: Iterable[float]) -> float:
    """Geometric mean of positive values; 0.0 if any value is <= 0."""
    vals = list(values)
    if not vals:
        raise ValueError("geomean of no values")
    if any(v <= 0.0 for v in vals):
        return 0.0
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-quantile (0 <= q <= 1); 0.0 if empty."""
    vals = sorted(values)
    if not vals:
        return 0.0
    pos = q * (len(vals) - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(vals) - 1)
    return vals[lo] + (vals[hi] - vals[lo]) * (pos - lo)


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One timed call into a layer: ``parent`` is the index of the
    enclosing span in the same list, or -1 at top level."""

    name: str
    start: float
    end: float
    parent: int = -1

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> List[float]:
    """Per-span self time: the span's duration minus the part of its
    interval its direct children cover.

    Children of one parent never overlap (calls nest on one thread),
    so the covered part is the sum of the children's durations.
    """
    child_time = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_time[span.parent] += span.duration
    return [s.duration - c for s, c in zip(spans, child_time)]


@dataclass
class LayerTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    durations: List[float] = field(default_factory=list)


def layer_totals(spans: Sequence[Span]) -> Dict[str, LayerTotals]:
    """Aggregate spans by name: call count, inclusive time, self time
    and the list of inclusive durations (for percentiles)."""
    out: Dict[str, LayerTotals] = {}
    for span, own in zip(spans, self_times(spans)):
        tot = out.get(span.name)
        if tot is None:
            tot = out[span.name] = LayerTotals()
        tot.calls += 1
        tot.total_s += span.duration
        tot.self_s += own
        tot.durations.append(span.duration)
    return out


# ----------------------------------------------------------------------
# failure accounting
# ----------------------------------------------------------------------
@dataclass
class Tally:
    """Attempted and failed adaptation periods over a benchmark run.

    A period fails if it raised, if the engine reported it deadlocked,
    if the worker pool failed under it, or if the unit it belongs to
    failed an output check (then every period of that unit counts).
    """

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def ok(self, periods: int) -> None:
        self.attempted += periods

    def fail(self, periods: int, reason: str) -> None:
        periods = max(1, periods)
        self.attempted += periods
        self.failed += periods
        self.reasons.append(reason)

    def reclassify(self, periods: int, reason: str) -> None:
        """Mark already-attempted periods as failed (an output check
        that fails after the periods ran)."""
        self.failed += min(periods, self.attempted - self.failed)
        self.reasons.append(reason)

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

