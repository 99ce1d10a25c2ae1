"""Tests for the extended topology zoo."""

import pytest

from repro.errors import TopologyError
from repro.network.properties import diameter, max_degree
from repro.network.topologies import (
    barbell_network,
    binary_tree_network,
    caterpillar_network,
    random_regular_network,
    wheel_network,
)

from tests.helpers import is_connected


class TestBinaryTree:
    def test_shape(self):
        net = binary_tree_network(3)
        assert net.n == 15
        assert net.m == 14
        assert max_degree(net) == 3
        assert diameter(net) == 6

    def test_depth_zero_single_node(self):
        assert binary_tree_network(0).n == 1

    def test_negative_depth_rejected(self):
        with pytest.raises(TopologyError):
            binary_tree_network(-1)


class TestCaterpillar:
    def test_shape(self):
        net = caterpillar_network(spine=4, legs_per_node=2)
        assert net.n == 4 + 8
        assert net.m == net.n - 1  # a tree
        assert max_degree(net) == 4  # interior spine: 2 spine + 2 legs

    def test_no_legs_is_line(self):
        from repro.network.topologies import line_network

        assert caterpillar_network(5, 0) == line_network(5)

    def test_invalid_rejected(self):
        with pytest.raises(TopologyError):
            caterpillar_network(0, 1)


class TestBarbell:
    def test_shape(self):
        net = barbell_network(clique=4, bridge=2)
        assert net.n == 10
        assert is_connected(net)
        # Two K4s (6 edges each) plus a 3-edge bridge path.
        assert net.m == 6 + 6 + 3

    def test_no_bridge_joins_directly(self):
        net = barbell_network(clique=3, bridge=0)
        assert net.n == 6
        assert is_connected(net)

    def test_invalid_rejected(self):
        with pytest.raises(TopologyError):
            barbell_network(1, 1)


class TestWheel:
    def test_shape(self):
        net = wheel_network(7)
        assert net.degree(0) == 6  # the hub
        assert diameter(net) == 2
        assert all(net.degree(p) == 3 for p in range(1, 7))

    def test_minimum_size(self):
        with pytest.raises(TopologyError):
            wheel_network(3)


class TestRandomRegular:
    @pytest.mark.parametrize("seed", range(3))
    def test_regularity_and_connectivity(self, seed):
        net = random_regular_network(10, 3, seed=seed)
        assert all(net.degree(p) == 3 for p in net.processors())
        assert is_connected(net)

    def test_deterministic(self):
        a = random_regular_network(8, 3, seed=5)
        b = random_regular_network(8, 3, seed=5)
        assert a == b

    def test_odd_product_rejected(self):
        with pytest.raises(TopologyError, match="even"):
            random_regular_network(5, 3, seed=0)

    def test_degree_bounds_rejected(self):
        with pytest.raises(TopologyError):
            random_regular_network(5, 1, seed=0)


class TestFullStackOnNewTopologies:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: binary_tree_network(2),
            lambda: caterpillar_network(3, 2),
            lambda: barbell_network(3, 1),
            lambda: wheel_network(6),
            lambda: random_regular_network(8, 3, seed=1),
        ],
        ids=["binary-tree", "caterpillar", "barbell", "wheel", "regular"],
    )
    def test_ssmfp_exactly_once(self, builder):
        from repro.app.workload import uniform_workload
        from repro.sim.runner import build_simulation, delivered_and_drained

        net = builder()
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, net.n, seed=7),
            routing_corruption={"kind": "random", "fraction": 1.0, "seed": 7},
            garbage={"fraction": 0.3, "seed": 7},
            seed=7,
        )
        sim.run(500_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()
