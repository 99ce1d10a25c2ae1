"""Tests for the generic BufferGraph."""

import pytest

from repro.buffergraph.graph import BufferGraph, BufferId
from repro.errors import TopologyError

from tests.helpers import weakly_connected_components


def b(p, d=0, kind="single"):
    return BufferId(p, d, kind)


class TestConstruction:
    def test_basic(self):
        g = BufferGraph([b(0), b(1)], [(b(0), b(1))])
        assert len(g.nodes) == 2
        assert g.edges == ((b(0), b(1)),)

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(TopologyError, match="unknown buffer"):
            BufferGraph([b(0)], [(b(0), b(1))])

    def test_self_loop_rejected(self):
        with pytest.raises(TopologyError, match="self-loop"):
            BufferGraph([b(0)], [(b(0), b(0))])

    def test_duplicate_edges_deduped(self):
        g = BufferGraph([b(0), b(1)], [(b(0), b(1)), (b(0), b(1))])
        assert len(g.edges) == 1

    def test_successors_predecessors(self):
        g = BufferGraph([b(0), b(1), b(2)], [(b(0), b(1)), (b(2), b(1))])
        assert g.successors(b(0)) == [b(1)]
        assert g._pred[b(1)] == [b(0), b(2)]  # is_acyclic's in-degrees
        assert g.successors(b(1)) == []


class TestAcyclicity:
    def test_dag_is_acyclic(self):
        g = BufferGraph([b(0), b(1), b(2)], [(b(0), b(1)), (b(1), b(2))])
        assert g.is_acyclic()
        order = g.topological_order()
        assert order.index(b(0)) < order.index(b(1)) < order.index(b(2))

    def test_cycle_detected(self):
        g = BufferGraph(
            [b(0), b(1), b(2)],
            [(b(0), b(1)), (b(1), b(2)), (b(2), b(0))],
        )
        assert not g.is_acyclic()
        assert g.topological_order() is None

    def test_two_cycle_detected(self):
        g = BufferGraph([b(0), b(1)], [(b(0), b(1)), (b(1), b(0))])
        assert not g.is_acyclic()

    def test_empty_graph_acyclic(self):
        g = BufferGraph([], [])
        assert g.is_acyclic()


class TestComponents:
    def test_weakly_connected_components(self):
        g = BufferGraph(
            [b(0, 0), b(1, 0), b(0, 1), b(1, 1)],
            [(b(0, 0), b(1, 0)), (b(1, 1), b(0, 1))],
        )
        comps = weakly_connected_components(g)
        assert len(comps) == 2
        assert {b(0, 0), b(1, 0)} in [set(c) for c in comps]

    def test_isolated_nodes_are_components(self):
        g = BufferGraph([b(0), b(1, 1)], [])
        assert len(weakly_connected_components(g)) == 2

    def test_subgraph_for_destination(self):
        g = BufferGraph(
            [b(0, 0), b(1, 0), b(0, 1)],
            [(b(0, 0), b(1, 0))],
        )
        sub = g.subgraph_for_destination(0)
        assert set(sub.nodes) == {b(0, 0), b(1, 0)}
        assert len(sub.edges) == 1

    def test_repr(self):
        g = BufferGraph([b(0), b(1)], [(b(0), b(1))])
        assert "nodes=2" in repr(g)


class TestBufferId:
    def test_ordering_stable(self):
        ids = sorted([b(1, 0, "R"), b(0, 1, "E"), b(0, 0, "E")])
        assert ids[0] == b(0, 0, "E")

    def test_repr(self):
        assert repr(BufferId(2, 5, "R")) == "bufR_2(5)"
