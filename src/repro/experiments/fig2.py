"""Experiment F2 — Figure 2: SSMFP's two-buffer graph for one destination.

Regenerates the figure's object: the reception/emission buffer graph for
destination ``b`` on the example network, with the structural checks the
adaptation relies on (acyclicity with correct tables, one R->E edge per
processor, one E->R edge per non-destination processor, 2n buffers).
"""

from __future__ import annotations

from typing import Dict, List

from repro.buffergraph.ssmfp_graph import ssmfp_buffer_graph
from repro.network.topologies import paper_figure1_network
from repro.routing.scripted import ScriptedRouting
from repro.routing.static import StaticRouting
from repro.sim.reporting import format_table


def run_fig2() -> List[Dict[str, object]]:
    """Structural summary of the two-buffer component for destination b,
    with correct and with cyclically corrupted tables."""
    net = paper_figure1_network()
    d = net.id_of("b")
    rows: List[Dict[str, object]] = []

    graph = ssmfp_buffer_graph(net, StaticRouting(net))
    sub = graph.subgraph_for_destination(d)
    rows.append(
        {
            "tables": "correct",
            "buffers": len(sub.nodes),
            "internal_edges": sum(1 for u, v in sub.edges if u.proc == v.proc),
            "forward_edges": sum(1 for u, v in sub.edges if u.proc != v.proc),
            "acyclic": sub.is_acyclic(),
        }
    )

    corrupted = ScriptedRouting(net)
    a, c = net.id_of("a"), net.id_of("e")
    corrupted.set_hop(a, d, c)
    corrupted.set_hop(c, d, a)
    bad = ssmfp_buffer_graph(net, corrupted).subgraph_for_destination(d)
    rows.append(
        {
            "tables": "corrupted (a<->e cycle)",
            "buffers": len(bad.nodes),
            "internal_edges": sum(1 for u, v in bad.edges if u.proc == v.proc),
            "forward_edges": sum(1 for u, v in bad.edges if u.proc != v.proc),
            "acyclic": bad.is_acyclic(),
        }
    )
    return rows


def render_component() -> str:
    """ASCII rendering of b's component (the figure's right-hand side)."""
    net = paper_figure1_network()
    graph = ssmfp_buffer_graph(net, StaticRouting(net))
    sub = graph.subgraph_for_destination(net.id_of("b"))
    lines = ["SSMFP buffer graph, component of destination b:"]
    for u, v in sub.edges:
        lines.append(
            f"  buf{u.kind}_{net.name(u.proc)}(b) -> "
            f"buf{v.kind}_{net.name(v.proc)}(b)"
        )
    return "\n".join(lines)


def report() -> str:
    """Regenerate Figure 2's table and rendering."""
    out = format_table(
        run_fig2(),
        columns=["tables", "buffers", "internal_edges", "forward_edges", "acyclic"],
        title="F2 / Figure 2 - SSMFP two-buffer graph for destination b",
    )
    return out + "\n\n" + render_component()

