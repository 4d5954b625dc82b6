"""Exactness of the kernel's per-event shortcuts.

- ``put_many_nowait`` / ``pop_many_nowait`` must do exactly what ``n``
  sequential ``put_nowait`` / ``pop_nowait`` calls do, from any queue
  state: items, totals, return counts, who is woken and the heap
  entries that wake them (Hypothesis properties).
- Inline self-resume: a timeout that lands strictly before every
  pending event resumes without a heap round trip, a tie still goes
  through the heap in ``seq`` order, inlined events are counted, and
  a ``run_until(max_events)`` stride keeps its budget.
- The dispatched event streams of three zoo engines are pinned: a
  blake2b digest over ``sim.trace``, the final clock and
  ``events_processed``.
"""

from __future__ import annotations

import hashlib
import os

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import SimQueue, Simulator, Timeout
from repro.des.engine import DesEngine
from repro.des.kernel import _Task
from repro.runtime.queues import QueuePlacement
from repro.scenarios import compile_scenario, load_scenario

ZOO = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(__file__))), "scenarios"
)


# ----------------------------------------------------------------------
# bulk queue operations
# ----------------------------------------------------------------------
@st.composite
def queue_states(draw):
    """A queue state the engine can reach: getters wait only on an
    empty queue, putters only on a full one, and parked tasks may
    also watch a second queue."""
    capacity = draw(st.integers(1, 6))
    fill = draw(st.integers(0, capacity))
    return {
        "capacity": capacity,
        "items": fill,
        "getters": draw(st.integers(0, 3)) if fill == 0 else 0,
        "putters": draw(st.integers(0, 3)) if fill == capacity else 0,
        "parked": draw(st.lists(st.booleans(), max_size=4)),
        "pending": draw(st.integers(0, 2)),
    }


def _build(state):
    """A simulator holding ``state`` on queue ``q`` (plus a second
    queue ``other`` that some parked tasks also watch)."""
    sim = Simulator()
    q = SimQueue(capacity=state["capacity"], name="q")
    other = SimQueue(capacity=2, name="other")
    tasks = []

    def task(name):
        t = _Task(process=None, name=name, idx=len(tasks))
        tasks.append(t)
        return t

    for i in range(state["items"]):
        q.items.append(("item", i))
    for _ in range(state["getters"]):
        q.getters.append(task("getter"))
    for i in range(state["putters"]):
        q.putters.append((task("putter"), ("waiting", i)))
    for both in state["parked"]:
        t = task("parked")
        t.parked_on = (q, other) if both else (q,)
        for watched in t.parked_on:
            watched.parked.append(t)
    for _ in range(state["pending"]):
        sim._schedule_task(1.0, task("pending"))
    return sim, q, other


def _snapshot(sim, q, other):
    def ids(tasks):
        return [t.idx for t in tasks]

    return {
        "items": list(q.items),
        "total_put": q.total_put,
        "total_got": q.total_got,
        "getters": ids(q.getters),
        "putters": [(t.idx, item) for t, item in q.putters],
        "parked": ids(q.parked),
        "other_parked": ids(other.parked),
        "heap": sorted(
            (time, seq, task.idx, value)
            for time, seq, task, value in sim._heap
        ),
    }


@settings(max_examples=300, deadline=None)
@given(state=queue_states(), n=st.integers(0, 9))
def test_put_many_matches_sequential_puts(state, n):
    bulk = _build(state)
    seq = _build(state)
    done = bulk[0].put_many_nowait(bulk[1], "tok", n)
    ok = sum(seq[0].put_nowait(seq[1], "tok") for _ in range(n))
    assert done == ok
    assert _snapshot(*bulk) == _snapshot(*seq)


@settings(max_examples=300, deadline=None)
@given(state=queue_states(), data=st.data())
def test_pop_many_matches_sequential_pops(state, data):
    # Each pop from a full queue admits one waiting putter.
    n = data.draw(st.integers(0, state["items"] + state["putters"]))
    bulk = _build(state)
    seq = _build(state)
    bulk[0].pop_many_nowait(bulk[1], n)
    for _ in range(n):
        seq[0].pop_nowait(seq[1])
    assert _snapshot(*bulk) == _snapshot(*seq)


# ----------------------------------------------------------------------
# inline self-resume
# ----------------------------------------------------------------------
def _count_heap_dispatches(sim):
    calls = []
    advance = sim._advance

    def counting(task, value):
        calls.append(task.name)
        advance(task, value)

    sim._advance = counting
    return calls


def test_lone_timeouts_resume_inline_and_are_counted():
    sim = Simulator()
    sim.trace = []

    def ticker():
        for _ in range(10):
            yield 1.0

    sim.spawn(ticker(), name="ticker")
    dispatched = _count_heap_dispatches(sim)
    n = sim.run_until(5.5)
    # Start at 0 plus resumes at 1..5; the one due at 6 stays pending.
    assert n == 6
    assert sim.events_processed == 6
    assert len(sim.trace) == 6
    assert sim.pending_events == 1
    assert sim.now == 5.5
    # Only the start came off the heap; the resumes were inlined.
    assert dispatched == ["ticker"]


def test_timeout_tying_a_pending_event_resumes_after_it():
    sim = Simulator()
    log = []

    def early():
        yield 1.0
        log.append(("early", sim.now))

    def late():
        yield Timeout(0.5)
        # Lands at 1.0, tying early's pending event: early's entry has
        # the lower sequence number and must run first.
        yield 0.5
        log.append(("late", sim.now))

    sim.spawn(early(), name="early")
    sim.spawn(late(), name="late")
    sim.run_until(2.0)
    assert log == [("early", 1.0), ("late", 1.0)]
    assert sim.events_processed == 5


def test_event_budget_counts_every_event():
    sim = Simulator()

    def ticker():
        while True:
            yield 1.0

    sim.spawn(ticker())
    assert sim.run_until(100.0, max_events=5) == 5
    assert sim.events_processed == 5
    # Stopped on the budget: the clock stays at the last event.
    assert sim.now == 4.0
    assert sim.run_until(100.0, max_events=3) == 3
    assert sim.now == 7.0
    # An unbudgeted run resumes inline and still counts each event.
    assert sim.run_until(10.0) == 3
    assert sim.events_processed == 11


# ----------------------------------------------------------------------
# pinned event streams of zoo engines
# ----------------------------------------------------------------------
# scenario -> (placement, scheduler threads, digest); recorded before
# inline self-resume and the bulk queue operations existed.
TRACE_CASES = {
    # A lock contended by two queued regions: per-tuple path.
    "custom-asymmetric": (
        lambda g: QueuePlacement.of([2, 3]),
        2,
        "8ff5702d86cc0f5743906cc2035b4f61",
    ),
    # Open loop under ``drop``: one arrival at a time, shed when full.
    "onoff-burst-overflow": (
        lambda g: QueuePlacement.of([1]),
        2,
        "85e1c728e9f5cec28d5b809d26f5f169",
    ),
    # Batched channels, prefetch and backpressure help under ``block``.
    "onoff-burst-batched": (
        lambda g: QueuePlacement.full(g),
        3,
        "75f6aa58b5ff4914b4b18882da24f292",
    ),
}


def _trace_digest(name):
    placement, threads, _digest = TRACE_CASES[name]
    compiled = compile_scenario(
        load_scenario(os.path.join(ZOO, f"{name}.yaml"))
    )
    factory = compiled.arrivals_factory()
    engine = DesEngine(
        compiled.graph,
        compiled.machine,
        placement(compiled.graph),
        threads,
        queue_capacity=compiled.scenario.run.queue_capacity,
        arrivals=factory(0.0) if factory is not None else None,
        overflow=compiled.overflow,
        channel=compiled.channel,
    )
    # Blocked-on payloads are object ids; name them stably.
    names = {id(q): q.name for q in engine._queues.values()}
    names[id(engine._core_pool)] = engine._core_pool.name
    for lock in [*engine._op_locks.values(), *engine._region_locks.values()]:
        names[id(lock)] = lock.name
    sim = engine.sim
    sim.trace = []
    engine.run(warmup_s=0.001, measure_s=0.002)
    assert len(sim.trace) == sim.events_processed
    h = hashlib.blake2b(digest_size=16)
    for idx, code, payload in sim.trace:
        # Codes 2-4: blocked on a get, a put or an acquire.
        shown = names[payload] if code in (2, 3, 4) else repr(payload)
        h.update(f"{idx} {code} {shown}\n".encode())
    h.update(f"{sim.now!r} {sim.events_processed}".encode())
    return h.hexdigest()


def test_zoo_event_streams_are_unchanged():
    for name, (_p, _t, digest) in TRACE_CASES.items():
        assert _trace_digest(name) == digest, name
