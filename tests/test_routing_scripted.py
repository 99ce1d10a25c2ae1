"""Tests for the scripted routing provider used by figure replays."""

import pytest

from repro.network.topologies import paper_figure3_network
from repro.routing.scripted import ScriptedRouting
from repro.routing.static import StaticRouting


class TestScriptedRouting:
    def test_defaults_to_correct_tables(self):
        net = paper_figure3_network()
        routing = ScriptedRouting(net)
        static = StaticRouting(net)
        for d in net.processors():
            for p in net.processors():
                assert routing.next_hop(p, d) == static.next_hop(p, d)
        assert routing.is_correct()

    def test_override_served_until_repair(self):
        net = paper_figure3_network()
        a, b, c = net.id_of("a"), net.id_of("b"), net.id_of("c")
        routing = ScriptedRouting(net)
        routing.set_hop(a, b, c)
        assert routing.next_hop(a, b) == c
        assert not routing.is_correct()
        routing.repair_all()
        assert routing.next_hop(a, b) == b
        assert routing.is_correct()

    def test_repair_all(self):
        net = paper_figure3_network()
        a, b, c = net.id_of("a"), net.id_of("b"), net.id_of("c")
        routing = ScriptedRouting(net)
        routing.set_hop(a, b, c)
        routing.set_hop(c, b, a)
        routing.repair_all()
        assert routing.is_correct()

    def test_rejects_non_neighbor(self):
        net = paper_figure3_network()
        a, d = net.id_of("a"), net.id_of("d")
        routing = ScriptedRouting(net)
        with pytest.raises(ValueError, match="neighbor"):
            routing.set_hop(a, 0, d)  # a and d are not adjacent

    def test_repair_unknown_entry_is_noop(self):
        net = paper_figure3_network()
        routing = ScriptedRouting(net)
        routing.repair_all()  # nothing overridden
        assert routing.is_correct()
