"""Tests for graph properties, cross-checked against networkx."""

import networkx as nx
import pytest

from repro.network.properties import (
    all_pairs_distances,
    bfs_distances,
    bfs_rows,
    diameter,
    eccentricity,
    max_degree,
)
from repro.network.topologies import (
    grid_network,
    hypercube_network,
    random_connected_network,
    ring_network,
    topology_by_name,
)
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting

from tests.helpers import is_connected

#: One instance of every topology ``topology_by_name`` builds; most have
#: equidistant parents (even rings, meshes, cliques, hypercubes) so the
#: smallest-identity tie-break is exercised throughout.
ZOO = (
    ("line", {"n": 6}), ("ring", {"n": 8}), ("ring", {"n": 7}),
    ("star", {"n": 6}), ("complete", {"n": 5}),
    ("grid", {"rows": 3, "cols": 4}), ("torus", {"rows": 3, "cols": 4}),
    ("hypercube", {"dim": 3}), ("lollipop", {"clique": 4, "tail": 3}),
    ("binary_tree", {"depth": 3}), ("caterpillar", {"spine": 4, "legs_per_node": 2}),
    ("barbell", {"clique": 3, "bridge": 2}), ("wheel", {"n": 7}),
    ("random_regular", {"n": 10, "degree": 3, "seed": 1}),
    ("random_tree", {"n": 11, "seed": 2}),
    ("random", {"n": 12, "extra_edges": 9, "seed": 3}),
    ("fig1", {}), ("fig3", {}),
)


def to_nx(net):
    g = nx.Graph()
    g.add_nodes_from(net.processors())
    g.add_edges_from(net.edges)
    return g


class TestBfsDistances:
    def test_line_distances(self, line5=None):
        from repro.network.topologies import line_network

        net = line_network(5)
        assert bfs_distances(net, 0) == [0, 1, 2, 3, 4]
        assert bfs_distances(net, 2) == [2, 1, 0, 1, 2]

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_networkx(self, seed):
        net = random_connected_network(15, 10, seed=seed)
        g = to_nx(net)
        for src in (0, 7, 14):
            expected = nx.single_source_shortest_path_length(g, src)
            got = bfs_distances(net, src)
            assert got == [expected[p] for p in net.processors()]


class TestBfsTree:
    """The hop row of :func:`bfs_rows` is the BFS tree ``T_root`` the paper
    routes along: every processor's entry is its parent."""

    def test_root_has_no_parent(self):
        net = ring_network(5)
        assert bfs_rows(net, 0)[1][0] == 0  # the root points at itself

    def test_parents_strictly_closer(self):
        net = random_connected_network(12, 8, seed=2)
        for root in net.processors():
            dist, parent = bfs_rows(net, root)
            for p in net.processors():
                if p == root:
                    continue
                assert parent[p] in net.neighbors(p)
                assert dist[parent[p]] == dist[p] - 1

    def test_smallest_id_tie_break(self):
        # Ring of 4: processor 2 has neighbors 1 and 3, both at distance 1
        # from root 0 -> parent must be 1.
        net = ring_network(4)
        assert bfs_rows(net, 0)[1][2] == 1


class TestOneBfsPerRow:
    """``bfs_rows`` computes distance and parent in one pass; the judge is
    the rule it replaced three copies of — a distance BFS, then per
    processor the smallest-identity neighbor one level closer."""

    @staticmethod
    def _two_pass(net, root):
        g = to_nx(net)
        length = nx.single_source_shortest_path_length(g, root)
        dist = [length[p] for p in net.processors()]
        hop = [
            p if p == root
            else min(q for q in net.neighbors(p) if dist[q] == dist[p] - 1)
            for p in net.processors()
        ]
        return dist, hop

    @pytest.mark.parametrize("name,kwargs", ZOO)
    def test_rows_match_the_two_pass_rule_everywhere(self, name, kwargs):
        net = topology_by_name(name, **kwargs)
        static, selfstab = StaticRouting(net), SelfStabilizingBFSRouting(net)
        for root in net.processors():
            dist, hop = self._two_pass(net, root)
            assert bfs_rows(net, root) == (dist, hop)
            assert bfs_distances(net, root) == dist
            # Both providers serve the same rows, and the self-stabilizing
            # one hands out fresh lists over one stored fixpoint.
            assert [static.next_hop(p, root) for p in net.processors()] == hop
            assert selfstab.dist[root] == dist and selfstab.hop[root] == hop
            assert selfstab._fixpoint_hop_row(root) is not selfstab._fixpoint_hop_row(root)
        assert selfstab.is_correct() and selfstab.snapshot() == ()

    def test_tie_goes_to_the_smallest_identity_not_the_first_found(self):
        # 0 - {1, 2}, 1 - 4, 2 - 3, {4, 3} - 5: level two is dequeued 4
        # then 3 (discovery order), so a first-discoverer rule would route
        # 5 through 4.
        from repro.network.graph import Network

        net = Network(6, [(0, 1), (0, 2), (1, 4), (2, 3), (4, 5), (3, 5)])
        assert bfs_rows(net, 0) == ([0, 1, 1, 2, 2, 3], [0, 0, 0, 2, 1, 3])


class TestGlobalProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_diameter_matches_networkx(self, seed):
        net = random_connected_network(12, 6, seed=seed)
        assert diameter(net) == nx.diameter(to_nx(net))

    def test_eccentricity(self):
        net = grid_network(2, 3)
        assert eccentricity(net, 0) == 3

    def test_max_degree_hypercube(self):
        assert max_degree(hypercube_network(4)) == 4

    def test_all_pairs_symmetry(self):
        net = random_connected_network(10, 5, seed=1)
        dist = all_pairs_distances(net)
        for u in net.processors():
            for v in net.processors():
                assert dist[u][v] == dist[v][u]

    def test_is_connected_true(self):
        assert is_connected(ring_network(5))
