"""Tests for the ASCII renderers."""

from repro.network.topologies import paper_figure3_network
from repro.viz.ascii_art import render_component_state, render_network

from tests.helpers import make_ssmfp


class TestRenderNetwork:
    def test_lists_every_processor(self):
        net = paper_figure3_network()
        out = render_network(net)
        for name in ("a", "b", "c", "d"):
            assert f"  {name} --" in out

    def test_header_has_sizes(self):
        out = render_network(paper_figure3_network())
        assert "n=4" in out and "m=4" in out


class TestRenderComponent:
    def test_empty_component_dotted(self):
        net = paper_figure3_network()
        proto = make_ssmfp(net)
        out = render_component_state(proto, net.id_of("b"))
        assert out.count(".......") == 8  # 2 buffers x 4 processors

    def test_occupied_buffer_shows_payload_and_color(self):
        net = paper_figure3_network()
        proto = make_ssmfp(net)
        b = net.id_of("b")
        msg = proto.factory.invalid("m2", b, 0, b)
        proto.bufs.set_r(b, b, msg)
        out = render_component_state(proto, b)
        assert "!m2/0" in out

    def test_destination_starred(self):
        net = paper_figure3_network()
        proto = make_ssmfp(net)
        out = render_component_state(proto, net.id_of("b"))
        assert "b*" in out
