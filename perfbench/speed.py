"""Host-speed calibration for wall-clock metrics on a shared machine.

On a host shared with other tenants the same work can take 1.5x as long
for seconds at a time.  A fixed calibration kernel — pure Python, no
program code — is timed at a steady cadence while the benchmark works,
and each timed interval is rescaled to the reference speed at which the
kernel takes ``REFERENCE_S``:

    scaled = raw * REFERENCE_S / mean(kernel time during the interval)

The kernel is timed in thread CPU time, so being descheduled does not
count; contention for caches and cores does, which is what slows the
program too.  The kernel and ``REFERENCE_S`` never change between
commits, so scaled seconds from two commits compare like raw seconds
on one quiet machine.
"""

from __future__ import annotations

import bisect
import heapq
import signal
import time
from typing import List, Tuple

# Kernel CPU time at the reference speed (a quiet 2-core x86 VM).
REFERENCE_S = 0.0008
# Cadence of kernel samples during timed work.
INTERVAL_S = 0.05


_NAMES = tuple(f"op{i}" for i in range(64))
_ORDER = tuple(range(64))


def kernel(n: int = 400) -> float:
    """The two operation mixes the program spends its time in, in
    fixed proportion: a discrete-event simulator's (generator sends,
    heap pushes and pops, dict stores) and a graph model's (set
    building, filtering list comprehensions, string-keyed lookups,
    float arithmetic).  Returns its thread CPU time."""
    heap: List[Tuple[float, int]] = []
    slots = {}
    rates = dict.fromkeys(_NAMES, 1.5)

    def proc(i):
        x = 0
        while True:
            x = yield x + i

    procs = [proc(i) for i in range(32)]
    for p in procs:
        next(p)
    t0 = time.thread_time()
    for k in range(n):
        v = procs[k & 31].send(k)
        heapq.heappush(heap, (v * 0.5, k))
        if len(heap) > 64:
            when, key = heapq.heappop(heap)
            slots[key & 255] = when
        if k & 7 == 0:
            chosen = set(_ORDER[k & 31 : (k & 31) + 24])
            rest = [m for m in _ORDER if m not in chosen]
            total = 0.0
            for name in _NAMES[: len(rest)]:
                total += rates[name] * 0.5
    return time.thread_time() - t0


class SpeedSampler:
    """Samples the kernel every INTERVAL_S of wall time (SIGALRM) while
    active.  :meth:`scale` rescales a timed interval; the wall time the
    samples themselves took inside it is excluded."""

    def __init__(self, interval_s: float = INTERVAL_S) -> None:
        self.interval_s = interval_s
        # (wall time at sample end, kernel CPU seconds, handler wall s)
        self._times: List[float] = []
        self._kernel: List[float] = []
        self._handler: List[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        k = kernel()
        end = time.perf_counter()
        self._times.append(end)
        self._kernel.append(k)
        self._handler.append(end - start)

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale(self, start: float, end: float) -> Tuple[float, float]:
        """(raw seconds, reference-speed seconds) of work timed from
        ``start`` to ``end`` (``time.perf_counter`` values)."""
        lo = bisect.bisect_left(self._times, start)
        hi = bisect.bisect_right(self._times, end)
        raw = end - start - sum(self._handler[lo:hi])
        inside = self._kernel[lo:hi]
        if not inside:
            # Shorter than the cadence: the nearest earlier sample.
            inside = self._kernel[max(0, lo - 1) : lo] or self._kernel[:1]
        return raw, raw * REFERENCE_S * len(inside) / sum(inside)


def calibrated(fn) -> Tuple[float, float]:
    """Run ``fn`` (which returns elapsed wall seconds of work done
    elsewhere, e.g. in a child process) between two kernel samples;
    returns (raw, reference-speed) seconds."""
    before = kernel()
    raw = fn()
    after = kernel()
    return raw, raw * REFERENCE_S * 2 / (before + after)
