"""Tests for the deadlock-free controller, including the progress
certificate over random occupancies (the Merlin-Schweitzer theorem as a
property test over the product's destination-based buffer graph)."""

import random

import pytest

from repro.buffergraph.destination_based import destination_based_buffer_graph
from repro.buffergraph.graph import BufferGraph, BufferId
from repro.errors import TopologyError
from repro.network.topologies import random_connected_network, ring_network
from repro.routing.static import StaticRouting

from tests.helpers import DeadlockFreeController


def b(p, d=0, kind="single"):
    return BufferId(p, d, kind)


class TestConstruction:
    def test_rejects_cyclic_graph(self):
        g = BufferGraph([b(0), b(1)], [(b(0), b(1)), (b(1), b(0))])
        with pytest.raises(TopologyError, match="cyclic"):
            DeadlockFreeController(g)

    def test_rank_respects_edges(self):
        g = BufferGraph([b(0), b(1), b(2)], [(b(0), b(1)), (b(1), b(2))])
        c = DeadlockFreeController(g)
        assert c.rank(b(0)) < c.rank(b(1)) < c.rank(b(2))


class TestPermissions:
    def test_permits_only_graph_edges(self):
        g = BufferGraph([b(0), b(1), b(2)], [(b(0), b(1))])
        c = DeadlockFreeController(g)
        assert c.permits_move(b(0), b(1))
        assert not c.permits_move(b(1), b(0))
        assert not c.permits_move(b(0), b(2))

    def test_generation_permitted_into_known_buffers(self):
        g = BufferGraph([b(0)], [])
        c = DeadlockFreeController(g)
        assert c.permits_generation(b(0))
        assert not c.permits_generation(b(9))


class TestProgressCertificate:
    def test_empty_network_no_move(self):
        net = ring_network(4)
        g = destination_based_buffer_graph(net, StaticRouting(net))
        c = DeadlockFreeController(g)
        assert c.certify_progress({}, consumable=lambda _: False) is None

    def test_consumable_preferred(self):
        net = ring_network(4)
        g = destination_based_buffer_graph(net, StaticRouting(net))
        c = DeadlockFreeController(g)
        occ = {BufferId(0, 0, "single"): "m"}
        move = c.certify_progress(occ, consumable=lambda buf: buf.proc == buf.dest)
        assert move == ("consume", BufferId(0, 0, "single"))

    @pytest.mark.parametrize("seed", range(10))
    def test_random_occupancy_always_progresses(self, seed):
        # The deadlock-freedom theorem: on the (acyclic) destination-based
        # graph, any occupancy admits a consume or a forward move.
        rng = random.Random(seed)
        net = random_connected_network(7, 4, seed=seed)
        g = destination_based_buffer_graph(net, StaticRouting(net))
        c = DeadlockFreeController(g)
        occ = {buf: "m" for buf in g.nodes if rng.random() < 0.6}
        if not occ:
            occ = {g.nodes[0]: "m"}
        move = c.certify_progress(occ, consumable=lambda buf: buf.proc == buf.dest)
        assert move is not None
        kind, buf = move
        if kind == "consume":
            assert buf.proc == buf.dest
        else:
            assert any(s not in occ for s in g.successors(buf))

    def test_full_network_still_progresses(self):
        net = ring_network(5)
        g = destination_based_buffer_graph(net, StaticRouting(net))
        c = DeadlockFreeController(g)
        occ = {buf: "m" for buf in g.nodes}
        move = c.certify_progress(occ, consumable=lambda buf: buf.proc == buf.dest)
        assert move is not None and move[0] == "consume"
