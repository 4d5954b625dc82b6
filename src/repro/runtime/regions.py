"""Fusion of the stream graph into execution regions.

Given a queue placement, the PE's operators partition into *regions*:

- every **source** operator starts a region, executed by its dedicated
  operator thread;
- every **queued** operator starts a region, executed by whichever
  scheduler thread pops a tuple from its queue;
- a non-queued operator is executed inline (function call) by the thread
  driving its upstream operator, so it belongs to the region(s) of its
  in-region predecessors.

A region is *serial*: at most one thread executes it at a time (the
operator thread for source regions; scheduler queues serialize access to
queued operators, matching the port-protection in the SPL runtime).  The
region decomposition therefore determines both the pipeline-parallelism
available (one unit per region) and the per-unit bottleneck work.

Rates are propagated from the graph so every region knows, per unit of
source emission rate:

- ``entry_rate`` — tuples entering the region head,
- ``op_rates`` — tuples processed at each member operator,
- ``push_rates`` — tuples pushed into each downstream scheduler queue.

Fan-in without a queue means an operator can belong to several regions;
each region accounts only for the tuples *it* delivers to that operator,
so the global rates are conserved (tested property).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..graph.model import StreamGraph
from .queues import QueuePlacement


@dataclass(frozen=True)
class Region:
    """One serial execution unit of the PE."""

    entry: int
    is_source_region: bool
    entry_rate: float
    op_rates: Tuple[Tuple[int, float], ...]
    push_rates: Tuple[Tuple[int, float], ...]

    @property
    def operators(self) -> Tuple[int, ...]:
        return tuple(idx for idx, _ in self.op_rates)

    def op_rate(self, idx: int) -> float:
        for op_idx, rate in self.op_rates:
            if op_idx == idx:
                return rate
        return 0.0


@dataclass(frozen=True)
class RegionDecomposition:
    """All regions of a PE under a particular queue placement."""

    regions: Tuple[Region, ...]
    placement: QueuePlacement

    @property
    def source_regions(self) -> Tuple[Region, ...]:
        return tuple(r for r in self.regions if r.is_source_region)

    @property
    def dynamic_regions(self) -> Tuple[Region, ...]:
        return tuple(r for r in self.regions if not r.is_source_region)

    @property
    def n_regions(self) -> int:
        return len(self.regions)

    def region_of_entry(self, entry: int) -> Region:
        for region in self.regions:
            if region.entry == entry:
                return region
        raise KeyError(f"no region with entry operator {entry}")

    def operators_per_region(self) -> Dict[int, List[int]]:
        """Map region entry -> member operator indices."""
        return {r.entry: list(r.operators) for r in self.regions}

    @cached_property
    def _reach_counts(self) -> Counter:
        return Counter(
            idx
            for region in self.regions
            for idx, rate in region.op_rates
            if rate > 0.0
        )

    def threads_reaching(self, op_idx: int) -> int:
        """Number of distinct regions whose execution touches ``op_idx``.

        Used by the contention model: an operator reachable from *k*
        regions can be executed by up to *k* threads concurrently, so a
        lock inside it contends among up to *k* threads.  Counted once
        per decomposition, on first use.
        """
        return self._reach_counts[op_idx]


# head -> (region, members other than the head, queued successors of
# the members).  See :func:`decompose` for when an entry is reusable.
RegionMemo = Dict[int, Tuple[Region, FrozenSet[int], FrozenSet[int]]]


def decompose(
    graph: StreamGraph,
    placement: QueuePlacement,
    memo: Optional[RegionMemo] = None,
) -> RegionDecomposition:
    """Partition ``graph`` into regions under ``placement``.

    The algorithm walks from each region head (source or queued
    operator) through non-queued successors, propagating tuple rates.
    A walk costs O(V_r + E_r): the members of the region it builds and
    their outgoing edges.  Regions are not disjoint — with fan-in and
    no queue an operator belongs to every region that reaches it — so a
    full decomposition costs the sum of the region sizes, which can
    exceed O(V + E).

    ``memo`` (owned by the caller, one per graph) makes a decomposition
    cost about as much as what the placement change touched.  A region
    is a pure function of its head and of which operators in its reach
    are queued: for a memoized ``(region, inner, push_targets)`` — the
    members other than the head, and the queued successors of the
    members — the walk under any queued set ``Q`` with
    ``inner.isdisjoint(Q)`` and ``push_targets <= Q`` classifies every
    visited successor exactly as before, so it yields the identical
    region.  Such an entry is reused; any other head is walked afresh
    and its entry replaced.  Without a memo every head is walked.
    """
    placement.validate(graph)
    queued = placement.queued

    heads: List[int] = [op.index for op in graph.sources]
    heads.extend(sorted(queued))

    regions: List[Region] = []
    for head in heads:
        cached = memo.get(head) if memo is not None else None
        if (
            cached is not None
            and cached[1].isdisjoint(queued)
            and cached[2] <= queued
        ):
            regions.append(cached[0])
            continue
        entry = _walk_region(graph, head, queued)
        if memo is not None:
            memo[head] = entry
        regions.append(entry[0])

    return RegionDecomposition(regions=tuple(regions), placement=placement)


def _walk_region(
    graph: StreamGraph, head: int, queued: FrozenSet[int]
) -> Tuple[Region, FrozenSet[int], FrozenSet[int]]:
    """Build the region headed by ``head`` under the ``queued`` set."""
    adjacency = graph.adjacency
    is_source = graph.operator(head).is_source
    entry_rate = 1.0 if is_source else graph.arrival_rate(head)
    # Collect the member set first (reachable without crossing queues).
    member_set = {head}
    push_targets = set()
    stack = [head]
    while stack:
        for succ in adjacency[stack.pop()]:
            if succ in queued:
                push_targets.add(succ)
            elif succ not in member_set:
                member_set.add(succ)
                stack.append(succ)
    # Process members in topological order so fan-in inside the region
    # accumulates fully before the operator's own outputs are
    # propagated.  ``rates`` maps op -> tuples/sec processed by THIS
    # region, per unit source rate.  For a queued head all tuples
    # arriving at the queue are handled here; for a source the region
    # handles its own emissions.
    members = sorted(member_set, key=graph.topological_positions.__getitem__)
    multipliers = graph.edge_rate_multipliers
    rates: Dict[int, float] = {head: entry_rate}
    pushes: Dict[int, float] = {}
    for node in members:
        per_succ = rates.get(node, 0.0) * multipliers[node]
        for succ in adjacency[node]:
            if succ in queued:
                pushes[succ] = pushes.get(succ, 0.0) + per_succ
            else:
                rates[succ] = rates.get(succ, 0.0) + per_succ
    region = Region(
        entry=head,
        is_source_region=is_source,
        entry_rate=entry_rate,
        op_rates=tuple((idx, rates.get(idx, 0.0)) for idx in members),
        push_rates=tuple(sorted(pushes.items())),
    )
    member_set.discard(head)
    return region, frozenset(member_set), frozenset(push_targets)
