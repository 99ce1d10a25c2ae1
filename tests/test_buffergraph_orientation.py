"""Tests for acyclic-orientation covers (the §4 open-problem machinery)."""

import pytest

from repro.buffergraph.orientation_cover import (
    Orientation,
    OrientationCover,
    cover_from_order,
    greedy_cover,
    orientation_cover_buffer_graph,
    ring_cover,
    tree_cover,
)
from repro.errors import TopologyError
from repro.network.topologies import (
    grid_network,
    line_network,
    random_connected_network,
    random_tree_network,
    ring_network,
    star_network,
)

from tests.helpers import DeadlockFreeController


class TestOrientation:
    def test_valid_orientation(self):
        net = line_network(3)
        o = Orientation(net, [(0, 1), (1, 2)])
        assert o.successors(0) == (1,)
        assert o.allows(0, 1) and not o.allows(1, 0)

    def test_rejects_non_edge(self):
        net = line_network(3)
        with pytest.raises(TopologyError, match="not an edge"):
            Orientation(net, [(0, 2), (1, 2)])

    def test_rejects_double_orientation(self):
        net = line_network(3)
        with pytest.raises(TopologyError, match="twice"):
            Orientation(net, [(0, 1), (1, 0)])

    def test_rejects_missing_edges(self):
        net = line_network(3)
        with pytest.raises(TopologyError, match="unoriented"):
            Orientation(net, [(0, 1)])

    def test_rejects_cyclic_orientation(self):
        net = ring_network(3)
        with pytest.raises(TopologyError, match="acyclic"):
            Orientation(net, [(0, 1), (1, 2), (2, 0)])

    def test_reversed(self):
        net = line_network(3)
        o = Orientation(net, [(0, 1), (1, 2)]).reversed()
        assert o.allows(1, 0) and o.allows(2, 1)


class TestCoverSemantics:
    def test_single_orientation_covers_descendants_only(self):
        net = line_network(3)
        cover = OrientationCover([Orientation(net, [(0, 1), (1, 2)])])
        assert 2 in cover.reachable_classes(0)
        assert 0 not in cover.reachable_classes(2)
        assert not cover.is_valid()

    def test_up_down_covers_line(self):
        net = line_network(5)
        cover = cover_from_order(net, list(range(5)))
        assert cover.size == 2  # up then down suffices on a path... only
        # if every pair is reachable: u<v goes up, u>v goes down.
        assert cover.is_valid()

    def test_mixed_networks_rejected(self):
        a = line_network(3)
        b = ring_network(3)
        with pytest.raises(TopologyError, match="same network"):
            OrientationCover(
                [
                    Orientation(a, [(0, 1), (1, 2)]),
                    Orientation(b, [(0, 1), (1, 2), (0, 2)]),
                ]
            )

    def test_empty_cover_rejected(self):
        with pytest.raises(TopologyError):
            OrientationCover([])


class TestKnownConstructions:
    def test_tree_cover_is_two(self):
        for seed in range(3):
            net = random_tree_network(9, seed=seed)
            cover = tree_cover(net)
            assert cover.size == 2  # the paper's "2 for a tree"
            assert cover.is_valid()

    def test_tree_cover_rejects_non_tree(self):
        with pytest.raises(TopologyError, match="tree"):
            tree_cover(ring_network(4))

    def test_star_cover_is_two(self):
        cover = tree_cover(star_network(7))
        assert cover.size == 2 and cover.is_valid()

    def test_ring_cover_is_three(self):
        from repro.routing.static import StaticRouting

        for n in (4, 5, 8, 12):
            net = ring_network(n)
            cover = ring_cover(net)
            assert cover.size == 3  # the paper's "3 for a ring"
            assert cover.is_valid()
            assert cover.is_valid_for_routing(StaticRouting(net))

    def test_two_classes_cannot_serve_ring_routing(self):
        # The mountain argument's lower-bound half: no up/down 2-class
        # sequence of the mountain order serves all shortest routes.
        from repro.buffergraph.orientation_cover import cover_from_order
        from repro.routing.static import StaticRouting

        net = ring_network(6)
        routing = StaticRouting(net)
        cover3 = ring_cover(net)
        two = OrientationCover(cover3.orientations[:2])
        assert two.uncovered_routing_pairs(routing)

    def test_ring_cover_rejects_non_ring(self):
        with pytest.raises(TopologyError, match="cycle"):
            ring_cover(line_network(4))

    def test_cover_from_order_rejects_non_permutation(self):
        with pytest.raises(TopologyError, match="permutation"):
            cover_from_order(line_network(3), [0, 0, 2])


class TestGreedyCover:
    @pytest.mark.parametrize("seed", range(4))
    def test_always_valid_on_random_graphs(self, seed):
        net = random_connected_network(8, 5, seed=seed)
        cover = greedy_cover(net, seed=seed)
        assert cover.is_valid()
        assert cover.size <= 16

    def test_grid_cover_small(self):
        cover = greedy_cover(grid_network(3, 3), seed=1)
        assert cover.is_valid()
        # A 3x3 grid with a good row-major order needs few alternations.
        assert cover.size <= 4

    def test_beats_or_matches_identity_order_on_rings(self):
        net = ring_network(7)
        assert greedy_cover(net, seed=2).size <= 3


class TestBufferGraphConstruction:
    def test_acyclic_and_sized(self):
        net = ring_network(6)
        cover = ring_cover(net)
        graph = orientation_cover_buffer_graph(cover)
        assert len(graph.nodes) == net.n * cover.size
        assert graph.is_acyclic()

    def test_supports_deadlock_free_controller(self):
        net = random_connected_network(7, 4, seed=3)
        cover = greedy_cover(net, seed=3)
        graph = orientation_cover_buffer_graph(cover)
        controller = DeadlockFreeController(graph)  # raises if cyclic
        # Any occupancy still certifies progress (consumable anywhere:
        # messages can be consumed in any class at their destination).
        occ = {b: "m" for b in graph.nodes[:: 2]}
        assert controller.certify_progress(occ, consumable=lambda b: b.proc == 0)

    def test_buffer_savings_vs_ssmfp(self):
        # The whole point: s buffers per processor instead of 2n.
        net = ring_network(10)
        cover = ring_cover(net)
        assert cover.size == 3 < 2 * net.n
