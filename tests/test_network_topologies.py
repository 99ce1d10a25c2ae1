"""Tests for the topology zoo."""

import pytest

from repro.errors import TopologyError
from repro.network.properties import diameter, max_degree
from repro.network.topologies import (
    complete_network,
    grid_network,
    hypercube_network,
    line_network,
    lollipop_network,
    paper_figure1_network,
    paper_figure3_network,
    random_connected_network,
    random_tree_network,
    ring_network,
    star_network,
    topology_by_name,
    torus_network,
)

from tests.helpers import is_connected


class TestLine:
    def test_shape(self):
        net = line_network(5)
        assert net.n == 5 and net.m == 4
        assert max_degree(net) == 2
        assert diameter(net) == 4

    def test_single_node(self):
        assert line_network(1).n == 1


class TestRing:
    def test_shape(self):
        net = ring_network(6)
        assert net.m == 6
        assert max_degree(net) == 2
        assert diameter(net) == 3

    def test_odd_ring_diameter(self):
        assert diameter(ring_network(7)) == 3

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            ring_network(2)


class TestStar:
    def test_shape(self):
        net = star_network(6)
        assert net.degree(0) == 5
        assert diameter(net) == 2
        assert max_degree(net) == 5

    def test_minimum(self):
        assert star_network(2).m == 1

    def test_too_small_rejected(self):
        with pytest.raises(TopologyError):
            star_network(1)


class TestComplete:
    def test_shape(self):
        net = complete_network(5)
        assert net.m == 10
        assert diameter(net) == 1
        assert max_degree(net) == 4


class TestGrid:
    def test_shape(self):
        net = grid_network(3, 4)
        assert net.n == 12
        assert net.m == 3 * 3 + 4 * 2  # horizontal + vertical
        assert diameter(net) == 5

    def test_degenerate_is_line(self):
        assert grid_network(1, 5) == line_network(5)

    def test_invalid_dims_rejected(self):
        with pytest.raises(TopologyError):
            grid_network(0, 3)


class TestTorus:
    def test_shape(self):
        net = torus_network(3, 3)
        assert net.n == 9
        assert max_degree(net) == 4
        assert net.m == 18

    def test_regularity(self):
        net = torus_network(4, 3)
        assert all(net.degree(p) == 4 for p in net.processors())

    def test_small_rejected(self):
        with pytest.raises(TopologyError):
            torus_network(2, 3)


class TestHypercube:
    def test_shape(self):
        net = hypercube_network(3)
        assert net.n == 8
        assert max_degree(net) == 3
        assert diameter(net) == 3

    def test_dim1_is_edge(self):
        assert hypercube_network(1).m == 1

    def test_bad_dim_rejected(self):
        with pytest.raises(TopologyError):
            hypercube_network(0)


class TestLollipop:
    def test_shape(self):
        net = lollipop_network(4, 3)
        assert net.n == 7
        assert max_degree(net) == 4  # clique node 0 also anchors the tail
        assert diameter(net) == 4

    def test_invalid_rejected(self):
        with pytest.raises(TopologyError):
            lollipop_network(1, 1)


class TestRandomFamilies:
    def test_random_tree_is_tree(self):
        net = random_tree_network(20, seed=3)
        assert net.m == 19
        assert is_connected(net)

    def test_random_tree_deterministic(self):
        assert random_tree_network(15, seed=9) == random_tree_network(15, seed=9)

    def test_random_tree_seed_sensitivity(self):
        assert random_tree_network(15, seed=1) != random_tree_network(15, seed=2)

    def test_random_connected_edge_budget(self):
        net = random_connected_network(10, extra_edges=5, seed=4)
        assert net.m == 9 + 5
        assert is_connected(net)

    def test_random_connected_extra_capped(self):
        net = random_connected_network(4, extra_edges=100, seed=4)
        assert net.m == 6  # complete graph

    def test_random_connected_deterministic(self):
        a = random_connected_network(12, 6, seed=11)
        b = random_connected_network(12, 6, seed=11)
        assert a == b


class TestPaperNetworks:
    def test_fig1_shape(self):
        net = paper_figure1_network()
        assert net.n == 5
        assert net.id_of("a") == 0
        assert is_connected(net)

    def test_fig3_delta_is_3(self):
        net = paper_figure3_network()
        assert max_degree(net) == 3
        b = net.id_of("b")
        assert net.degree(b) == 3

    def test_fig3_has_ac_edge_for_cycle(self):
        net = paper_figure3_network()
        assert net.are_neighbors(net.id_of("a"), net.id_of("c"))


class TestByName:
    def test_dispatch(self):
        assert topology_by_name("ring", n=5) == ring_network(5)

    def test_unknown_rejected(self):
        with pytest.raises(TopologyError, match="unknown topology"):
            topology_by_name("klein-bottle")
