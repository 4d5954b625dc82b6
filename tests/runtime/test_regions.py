"""Tests for region fusion, including rate-conservation properties."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.packet_analysis import build_packet_analysis
from repro.graph import (
    FanoutPolicy,
    GraphBuilder,
    StreamGraph,
    bushy_82,
    data_parallel,
    mixed,
    pipeline,
)
from repro.graph.analysis import queueable_indices
from repro.perfmodel import PerformanceModel, laptop
from repro.runtime import QueuePlacement, decompose
from repro.scenarios import load_compiled
from repro.scenarios.zoo import scenario_files


class TestChainDecomposition:
    def test_empty_placement_single_region(self, chain10):
        d = decompose(chain10, QueuePlacement.empty())
        assert d.n_regions == 1
        region = d.regions[0]
        assert region.is_source_region
        assert len(region.operators) == len(chain10)

    def test_full_placement_one_region_per_operator(self, chain10):
        d = decompose(chain10, QueuePlacement.full(chain10))
        assert d.n_regions == len(chain10)
        for region in d.dynamic_regions:
            assert len(region.operators) == 1

    def test_single_queue_splits_chain(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        assert d.n_regions == 2
        src_region = d.source_regions[0]
        dyn_region = d.dynamic_regions[0]
        assert mid not in src_region.operators
        assert dyn_region.entry == mid
        # Chain: src..op4 in source region, op5..snk in dynamic region.
        assert len(src_region.operators) + len(dyn_region.operators) == len(
            chain10
        )

    def test_push_rates_cross_queue_boundary(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        src_region = d.source_regions[0]
        assert src_region.push_rates == ((mid, pytest.approx(1.0)),)

    def test_dynamic_region_entry_rate(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        assert d.dynamic_regions[0].entry_rate == pytest.approx(1.0)


class TestFanOutDecomposition:
    def test_broadcast_operator_in_two_regions(self, diamond):
        # Queue on b only: c and d stay with the source region; d also
        # reachable from b's region.
        b_idx = diamond.by_name("b").index
        d_idx = diamond.by_name("d").index
        d = decompose(diamond, QueuePlacement.of([b_idx]))
        assert d.threads_reaching(d_idx) == 2

    def test_rates_split_between_regions(self, diamond):
        b_idx = diamond.by_name("b").index
        d_idx = diamond.by_name("d").index
        decomp = decompose(diamond, QueuePlacement.of([b_idx]))
        total = sum(r.op_rate(d_idx) for r in decomp.regions)
        # d receives rate 2 overall (from b and c, broadcast).
        assert total == pytest.approx(2.0)

    def test_data_parallel_sink_reached_by_all_workers(self, dp8):
        workers = [
            op.index for op in dp8 if op.name.startswith("worker")
        ]
        snk = dp8.by_name("snk").index
        d = decompose(dp8, QueuePlacement.of(workers))
        assert d.threads_reaching(snk) == len(workers)


class TestDecompositionAccessors:
    def test_region_of_entry(self, chain10):
        mid = chain10.by_name("op5").index
        d = decompose(chain10, QueuePlacement.of([mid]))
        assert d.region_of_entry(mid).entry == mid
        with pytest.raises(KeyError):
            d.region_of_entry(999)

    def test_operators_per_region(self, chain10):
        d = decompose(chain10, QueuePlacement.empty())
        per = d.operators_per_region()
        assert len(per) == 1
        (members,) = per.values()
        assert len(members) == len(chain10)

    def test_op_rate_zero_for_missing(self, chain10):
        d = decompose(chain10, QueuePlacement.empty())
        assert d.regions[0].op_rate(999) == 0.0


def _random_placement(graph, rng, fraction):
    eligible = list(queueable_indices(graph))
    k = int(fraction * len(eligible))
    chosen = rng.choice(eligible, size=k, replace=False) if k else []
    return QueuePlacement.of(int(i) for i in chosen)


class TestRateConservation:
    """Region-local rates must always sum to the graph's global rates."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0])
    def test_pipeline_conservation(self, fraction, rng):
        g = pipeline(30)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)

    @pytest.mark.parametrize("fraction", [0.0, 0.3, 1.0])
    def test_mixed_conservation(self, fraction, rng):
        g = mixed(4, 8)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)

    def test_data_parallel_conservation(self, dp8, rng):
        placement = _random_placement(dp8, rng, 0.5)
        self._assert_conserved(dp8, placement)

    @staticmethod
    def _assert_conserved(graph, placement):
        decomp = decompose(graph, placement)
        global_rates = graph.arrival_rates()
        summed = {op.index: 0.0 for op in graph}
        for region in decomp.regions:
            for idx, rate in region.op_rates:
                summed[idx] += rate
        for idx, expected in global_rates.items():
            assert summed[idx] == pytest.approx(expected, abs=1e-9), (
                f"operator {idx}: regions sum to {summed[idx]}, "
                f"global rate {expected}"
            )

    @staticmethod
    def _assert_push_consistency(graph, placement):
        """Push rates into each queue equal the queue's entry rate."""
        decomp = decompose(graph, placement)
        pushes = {}
        for region in decomp.regions:
            for queue_op, rate in region.push_rates:
                pushes[queue_op] = pushes.get(queue_op, 0.0) + rate
        for region in decomp.dynamic_regions:
            assert pushes.get(region.entry, 0.0) == pytest.approx(
                region.entry_rate, abs=1e-9
            )

    @given(
        seed=st.integers(0, 10_000),
        n_ops=st.integers(2, 40),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_conservation_random_chain(
        self, seed, n_ops, fraction
    ):
        g = pipeline(n_ops)
        rng = np.random.default_rng(seed)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)
        self._assert_push_consistency(g, placement)

    @given(
        seed=st.integers(0, 10_000),
        width=st.integers(1, 8),
        depth=st.integers(1, 6),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_conservation_random_mixed(
        self, seed, width, depth, fraction
    ):
        g = mixed(width, depth)
        rng = np.random.default_rng(seed)
        placement = _random_placement(g, rng, fraction)
        self._assert_conserved(g, placement)
        self._assert_push_consistency(g, placement)


class TestSelectivityRegions:
    def test_selectivity_amplifies_downstream_rates(self):
        b = GraphBuilder("sel")
        src = b.add_source("src")
        tok = b.add_operator("tok", selectivity=5.0)
        work = b.add_operator("work")
        snk = b.add_sink("snk")
        b.chain(src, tok, work, snk)
        g = b.build()
        d = decompose(g, QueuePlacement.of([work.index]))
        src_region = d.source_regions[0]
        assert src_region.push_rates == ((work.index, pytest.approx(5.0)),)
        dyn = d.dynamic_regions[0]
        assert dyn.entry_rate == pytest.approx(5.0)

    def test_split_fanout_partial_queueing(self):
        b = GraphBuilder("partial")
        src = b.add_source("src", fanout=FanoutPolicy.SPLIT)
        w1 = b.add_operator("w1")
        w2 = b.add_operator("w2")
        snk = b.add_sink("snk", uses_lock=False)
        b.fan_out(src, [w1, w2])
        b.fan_in([w1, w2], snk)
        g = b.build()
        # Queue only w1: w2 and snk stay in the source region.
        d = decompose(g, QueuePlacement.of([w1.index]))
        src_region = d.source_regions[0]
        assert src_region.op_rate(w2.index) == pytest.approx(0.5)
        assert src_region.push_rates == ((w1.index, pytest.approx(0.5)),)
        dyn = d.dynamic_regions[0]
        assert dyn.op_rate(snk.index) == pytest.approx(0.5)


# ----------------------------------------------------------------------
# the region memo: memoized decompositions equal memo-less ones
# ----------------------------------------------------------------------
_GRAPHS = {}


def _dead_branch():
    """A filter dropping every tuple: operators behind it run at rate 0
    yet stay region members (and must not count as reached)."""
    b = GraphBuilder("dead-branch")
    src = b.add_source("src")
    drop = b.add_operator("drop", selectivity=0.0)
    dead = b.add_operator("dead")
    live = b.add_operator("live")
    snk = b.add_sink("snk", uses_lock=True)
    b.fan_out(src, [drop, live])
    b.connect(drop, dead)
    b.fan_in([dead, live], snk)
    return b.build()


def _zoo_graph(name):
    """Topology-zoo, scenario-zoo and PacketAnalysis graphs, built once."""
    if not _GRAPHS:
        _GRAPHS.update(
            {
                "dead_branch": _dead_branch(),
                "pipeline": pipeline(12),
                "data_parallel": data_parallel(6),
                "mixed": mixed(3, 4),
                "bushy_82": bushy_82(),
                "packet_analysis_1": build_packet_analysis(1),
            }
        )
        for path in scenario_files(None):
            _GRAPHS[path.stem] = load_compiled(path).graph
    return _GRAPHS[name]


_GRAPH_NAMES = [
    "dead_branch",
    "pipeline",
    "data_parallel",
    "mixed",
    "bushy_82",
    "packet_analysis_1",
] + [path.stem for path in scenario_files(None)]


def _scanned_threads_reaching(decomp, op_idx):
    """The contention count by scanning every region's op_rates."""
    return sum(1 for r in decomp.regions if r.op_rate(op_idx) > 0.0)


# A walk step toggles the queues of a few operators (drawn by position
# in the graph's queueable list) — several at once, like a threading
# model probe re-drawing a subset.
_walks = st.lists(
    st.lists(st.integers(0, 10_000), min_size=1, max_size=6),
    min_size=1,
    max_size=12,
)


class TestRegionMemo:
    @given(
        name=st.sampled_from(_GRAPH_NAMES),
        start_fraction=st.floats(0.0, 1.0),
        walk=_walks,
    )
    @settings(max_examples=80, deadline=None)
    def test_memoized_equals_fresh_along_placement_walks(
        self, name, start_fraction, walk
    ):
        graph = _zoo_graph(name)
        eligible = queueable_indices(graph)
        queued = set(eligible[: int(start_fraction * len(eligible))])
        memo = {}
        for picks in [[]] + walk:
            for pick in picks:
                queued ^= {eligible[pick % len(eligible)]}
            placement = QueuePlacement.of(queued)
            memoized = decompose(graph, placement, memo)
            fresh = decompose(graph, placement)
            assert memoized == fresh
            for ours, theirs in zip(memoized.regions, fresh.regions):
                assert ours.op_rates == theirs.op_rates
                assert ours.push_rates == theirs.push_rates
                assert ours.entry_rate == theirs.entry_rate
            for op in graph:
                assert memoized.threads_reaching(
                    op.index
                ) == _scanned_threads_reaching(fresh, op.index)

    def test_zero_rate_members_are_not_reached(self):
        graph = _dead_branch()
        dead = graph.by_name("dead").index
        snk = graph.by_name("snk").index
        decomp = decompose(graph, QueuePlacement.of([snk]))
        assert dead in decomp.regions[0].operators
        assert decomp.threads_reaching(dead) == 0
        assert decomp.threads_reaching(snk) == 1

    def test_memo_reuses_untouched_regions(self):
        graph = pipeline(12)
        memo = {}
        first = decompose(graph, QueuePlacement.of([3, 8]), memo)
        second = decompose(graph, QueuePlacement.of([3, 8, 10]), memo)
        # The region headed at 3 does not reach 10; the one at 8 does.
        assert second.region_of_entry(3) is first.region_of_entry(3)
        assert second.region_of_entry(8) is not first.region_of_entry(8)
        assert second == decompose(graph, QueuePlacement.of([3, 8, 10]))

    @given(
        seed=st.integers(0, 10_000),
        fraction=st.floats(0.0, 1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_model_invalidate_never_serves_a_stale_region(
        self, seed, fraction
    ):
        graph = build_packet_analysis(1)
        rng = np.random.default_rng(seed)
        placements = [
            _random_placement(graph, rng, fraction) for _ in range(3)
        ]
        model = PerformanceModel(graph, laptop(8))
        for placement in placements:
            model.estimate(placement, 4)
        # A cost-only swap keeps every region but changes the work.
        costly = graph.replace_costs(
            {op.index: op.cost_flops * 3.0 + 1.0 for op in graph}
        )
        model.invalidate(costly)
        for placement in placements:
            assert model.estimate(placement, 4) == PerformanceModel(
                costly, laptop(8)
            ).estimate(placement, 4)
        # A selectivity swap on the same topology changes the regions.
        halved = StreamGraph(
            [
                dataclasses.replace(op, selectivity=op.selectivity * 0.5)
                for op in graph
            ],
            graph.edges,
            tuple_spec=graph.tuple_spec,
            name=graph.name,
        )
        model.invalidate(halved)
        for placement in placements:
            assert model.decomposition(placement) == decompose(
                halved, placement
            )
            assert model.estimate(placement, 4) == PerformanceModel(
                halved, laptop(8)
            ).estimate(placement, 4)
