"""Tests for the Figure-1 and Figure-2 buffer-graph constructions."""

import pytest

from repro.buffergraph.destination_based import destination_based_buffer_graph
from repro.buffergraph.graph import BufferId
from repro.buffergraph.ssmfp_graph import ssmfp_buffer_graph
from repro.network.topologies import (
    line_network,
    paper_figure1_network,
    random_connected_network,
    ring_network,
)
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting

from tests.helpers import corrupt_with_cycle, weakly_connected_components


class TestDestinationBased:
    def test_node_count(self):
        net = paper_figure1_network()
        g = destination_based_buffer_graph(net, StaticRouting(net))
        assert len(g.nodes) == net.n * net.n

    def test_acyclic_with_correct_tables(self):
        for seed in range(3):
            net = random_connected_network(8, 5, seed=seed)
            g = destination_based_buffer_graph(net, StaticRouting(net))
            assert g.is_acyclic()

    def test_one_component_per_destination(self):
        net = paper_figure1_network()
        g = destination_based_buffer_graph(net, StaticRouting(net))
        comps = weakly_connected_components(g)
        assert len(comps) == net.n

    def test_component_isomorphic_to_tree(self):
        # Each component has n nodes and n-1 edges (it is T_d).
        net = ring_network(6)
        g = destination_based_buffer_graph(net, StaticRouting(net))
        for d in net.processors():
            sub = g.subgraph_for_destination(d)
            assert len(sub.nodes) == net.n
            assert len(sub.edges) == net.n - 1

    def test_edges_follow_next_hops(self):
        net = line_network(4)
        rt = StaticRouting(net)
        g = destination_based_buffer_graph(net, rt)
        assert (BufferId(0, 3, "single"), BufferId(1, 3, "single")) in g.edges

    def test_cyclic_with_corrupted_tables(self):
        net = ring_network(5)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_with_cycle(routing, dest=0, cycle=[2, 3])
        g = destination_based_buffer_graph(net, routing)
        assert not g.is_acyclic()


class TestSsmfpGraph:
    def test_two_buffers_per_processor_per_destination(self):
        net = paper_figure1_network()
        g = ssmfp_buffer_graph(net, StaticRouting(net))
        assert len(g.nodes) == 2 * net.n * net.n

    def test_internal_edges_present(self):
        net = line_network(3)
        g = ssmfp_buffer_graph(net, StaticRouting(net))
        for d in net.processors():
            for p in net.processors():
                assert (BufferId(p, d, "R"), BufferId(p, d, "E")) in g.edges

    def test_acyclic_with_correct_tables(self):
        for seed in range(3):
            net = random_connected_network(8, 5, seed=seed)
            g = ssmfp_buffer_graph(net, StaticRouting(net))
            assert g.is_acyclic()

    def test_one_component_per_destination(self):
        net = ring_network(5)
        g = ssmfp_buffer_graph(net, StaticRouting(net))
        assert len(weakly_connected_components(g)) == net.n

    def test_component_edge_count(self):
        # n R->E edges plus n-1 E->R forwarding edges per destination.
        net = ring_network(5)
        g = ssmfp_buffer_graph(net, StaticRouting(net))
        for d in net.processors():
            sub = g.subgraph_for_destination(d)
            assert len(sub.edges) == net.n + net.n - 1

    def test_cyclic_with_corrupted_tables(self):
        net = ring_network(5)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_with_cycle(routing, dest=0, cycle=[2, 3])
        g = ssmfp_buffer_graph(net, routing)
        assert not g.is_acyclic()

    def test_emission_feeds_next_hop_reception(self):
        net = line_network(4)
        g = ssmfp_buffer_graph(net, StaticRouting(net))
        assert (BufferId(0, 3, "E"), BufferId(1, 3, "R")) in g.edges
        # The destination's emission buffer feeds nobody.
        assert g.successors(BufferId(3, 3, "E")) == []
