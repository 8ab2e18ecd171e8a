"""Tests for Dinic max-flow and the Hong-Kung dominator machinery.

:func:`minimum_dominator_size` builds its flow network on the targets'
ancestor cone instead of the whole CDAG.  ``_reference.py`` keeps the
whole-graph version; the equivalence tests below assert both give the
same value on fixed and random target sets, and the E14.1 rows are
pinned exactly so that a flow bug that deflates (or inflates)
dominators fails here rather than slipping under HK's ``3M`` envelope.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bilinear import classical, strassen
from repro.bounds import (
    hong_kung_bound_from_partition,
    minimum_dominator_size,
    minimum_set,
    partition_by_io,
    verify_hk_partition,
)
from repro.cdag import Region, build_base_graph, build_cdag
from repro.schedules import loop_order_schedule, recursive_schedule
from repro.utils.flow import Dinic

from . import _reference

#: ``build_cdag(classical(2), r)`` and ``build_cdag(strassen(), r)`` for
#: r <= 3, built once.
GRAPHS = {
    f"{name} G_{r}": build_cdag(alg(), r)
    for name, alg in (("classical", lambda: classical(2)), ("strassen", strassen))
    for r in (1, 2, 3)
}


class TestDinic:
    def test_simple_network(self):
        d = Dinic(4)
        d.add_edge(0, 1, 2)
        d.add_edge(0, 2, 2)
        d.add_edge(1, 3, 1)
        d.add_edge(2, 3, 3)
        assert d.max_flow(0, 3) == 3

    def test_disconnected(self):
        d = Dinic(3)
        d.add_edge(0, 1, 5)
        assert d.max_flow(0, 2) == 0

    def test_bottleneck(self):
        d = Dinic(5)
        d.add_edge(0, 1, 10)
        d.add_edge(1, 2, 1)
        d.add_edge(2, 3, 10)
        d.add_edge(0, 4, 10)
        d.add_edge(4, 2, 10)
        assert d.max_flow(0, 3) == 10  # capped by edge 2->3

    def test_min_cut_source_side(self):
        d = Dinic(4)
        d.add_edge(0, 1, 1)
        d.add_edge(1, 2, 5)
        d.add_edge(2, 3, 5)
        d.max_flow(0, 3)
        assert d.min_cut_source_side(0) == [0]

    def test_same_source_sink_raises(self):
        with pytest.raises(ValueError):
            Dinic(2).max_flow(0, 0)

    def test_bad_edge_raises(self):
        d = Dinic(2)
        with pytest.raises(ValueError):
            d.add_edge(0, 5, 1)
        with pytest.raises(ValueError):
            d.add_edge(0, 1, -1)

    def test_matches_networkx_on_random_graphs(self):
        import networkx as nx

        rng = np.random.default_rng(7)
        for _ in range(10):
            n = int(rng.integers(4, 10))
            g = nx.gnp_random_graph(n, 0.5, seed=int(rng.integers(1e6)),
                                    directed=True)
            d = Dinic(n)
            for u, v in g.edges:
                cap = int(rng.integers(1, 6))
                g[u][v]["capacity"] = cap
                d.add_edge(u, v, cap)
            expected = nx.maximum_flow_value(g, 0, n - 1)
            assert d.max_flow(0, n - 1) == expected


class TestDominators:
    def test_single_input_dominates_itself(self):
        g = build_base_graph(strassen())
        v = int(g.inputs()[0])
        assert minimum_dominator_size(g, [v]) == 1

    def test_product_dominated_by_one_vertex(self):
        # One product can be dominated by itself.
        g = build_base_graph(strassen())
        assert minimum_dominator_size(g, [int(g.products()[0])]) == 1

    def test_all_outputs_dominator(self):
        """The outputs of G_r can be dominated by the a^r outputs
        themselves (or anything smaller the cut finds)."""
        g = build_cdag(strassen(), 2)
        dom = minimum_dominator_size(g, g.outputs())
        assert 0 < dom <= len(g.outputs())

    def test_empty_targets(self):
        g = build_base_graph(strassen())
        assert minimum_dominator_size(g, []) == 0

    def test_dominator_monotone(self):
        g = build_cdag(strassen(), 2)
        few = minimum_dominator_size(g, g.outputs()[:2])
        more = minimum_dominator_size(g, g.outputs())
        assert few <= more


def _fixed_target_sets(g):
    """The edge cases: empty, single, duplicated, inputs (which dominate
    themselves), all outputs, and a mix across the CDAG's layers."""
    inputs, outputs, products = g.inputs(), g.outputs(), g.products()
    return {
        "empty": [],
        "single output": [int(outputs[0])],
        "single product": [int(products[-1])],
        "single input": [int(inputs[0])],
        "all inputs": inputs,
        "duplicates": [int(outputs[0]), int(outputs[0]), int(products[0]),
                       int(products[0])],
        "all outputs": outputs,
        "inputs and outputs": np.concatenate([inputs[:3], outputs[-3:]]),
        "all products": products,
    }


class TestConeMatchesWholeGraph:
    """The ancestor-cone network gives the whole-graph network's value."""

    @pytest.mark.parametrize("graph", sorted(GRAPHS))
    def test_fixed_target_sets(self, graph):
        g = GRAPHS[graph]
        for label, targets in _fixed_target_sets(g).items():
            expected = _reference.minimum_dominator_size(g, targets)
            assert minimum_dominator_size(g, targets) == expected, label

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(sorted(GRAPHS)), st.data())
    def test_random_target_sets(self, graph, data):
        g = GRAPHS[graph]
        targets = data.draw(
            st.lists(st.integers(0, g.n_vertices - 1), max_size=24),
            label="targets",
        )
        assert minimum_dominator_size(g, targets) == (
            _reference.minimum_dominator_size(g, targets)
        )


class TestE14Rows:
    """E14.1's rows as exact behaviour numbers: the executions and their
    2M-partitions are deterministic, so any drift is a bug."""

    @pytest.mark.parametrize(
        "alg, r, kind, phases, max_dom, max_min",
        [
            (lambda: classical(2), 3, "ijk", 152, 12, 7),
            (strassen, 2, "recursive", 27, 9, 4),
            (strassen, 3, "recursive", 222, 10, 4),
        ],
        ids=["classical G_3", "strassen G_2", "strassen G_3"],
    )
    def test_row(self, alg, r, kind, phases, max_dom, max_min):
        g = build_cdag(alg(), r)
        sched = (loop_order_schedule(g, "ijk") if kind == "ijk"
                 else recursive_schedule(g))
        report = verify_hk_partition(g, partition_by_io(g, sched, 8), 8)
        assert (report["n_parts"], report["max_dominator"],
                report["max_minimum_set"]) == (phases, max_dom, max_min)


class TestMinimumSet:
    def test_outputs_are_their_own_minimum_set(self):
        g = build_base_graph(strassen())
        ms = minimum_set(g, g.outputs())
        np.testing.assert_array_equal(ms, g.outputs())

    def test_chain_minimum_set_is_top(self):
        g = build_cdag(strassen(), 2)
        # A product plus its decoder parent: only the parent survives.
        v = int(g.products()[0])
        parent = int(g.successors(v)[0])
        ms = minimum_set(g, [v, parent])
        assert parent in ms.tolist()


class TestHKPartition:
    def test_partition_covers_schedule(self):
        g = build_cdag(strassen(), 2)
        sched = recursive_schedule(g)
        parts = partition_by_io(g, sched, 8)
        recombined = np.concatenate(parts)
        np.testing.assert_array_equal(recombined, sched)

    def test_hk_envelope_on_classical(self):
        g = build_cdag(classical(2), 2)
        sched = loop_order_schedule(g, "ijk")
        M = 8
        parts = partition_by_io(g, sched, M)
        report = verify_hk_partition(g, parts, M)
        assert report["dominator_ok"]
        assert report["minimum_set_ok"]

    def test_certified_bound_sound(self):
        from repro.pebbling import simulate_io

        g = build_cdag(strassen(), 2)
        sched = recursive_schedule(g)
        M = 8
        parts = partition_by_io(g, sched, M)
        certified = hong_kung_bound_from_partition(len(parts), M)
        assert certified <= simulate_io(g, sched, M).total

    def test_bound_formula(self):
        assert hong_kung_bound_from_partition(10, 4) == 36
        assert hong_kung_bound_from_partition(0, 4) == 0

    def test_more_io_more_parts(self):
        """A worse schedule induces more 2M-phases (HK's counting)."""
        from repro.schedules import rank_order_schedule

        g = build_cdag(strassen(), 2)
        M = 8
        good = partition_by_io(g, recursive_schedule(g), M)
        bad = partition_by_io(g, rank_order_schedule(g), M)
        assert len(bad) >= len(good)
