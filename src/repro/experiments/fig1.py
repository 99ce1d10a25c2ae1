"""Experiment F1 — Figure 1: the destination-based buffer graph.

Regenerates the figure's object: the Merlin-Schweitzer buffer graph on the
Figure-1 network with correct tables.  Verifies (and tabulates) the
properties the figure illustrates — n weakly connected components, each
isomorphic to the routing tree T_d, globally acyclic — and contrasts with
the corrupted-tables case where the construction contains a cycle (the
hazard SSMFP tolerates).
"""

from __future__ import annotations

from typing import Dict, List

from repro.buffergraph.destination_based import destination_based_buffer_graph
from repro.network.topologies import paper_figure1_network
from repro.routing.scripted import ScriptedRouting
from repro.routing.static import StaticRouting
from repro.sim.reporting import format_table


def run_fig1() -> List[Dict[str, object]]:
    """One row per destination component, plus a corrupted-tables row."""
    net = paper_figure1_network()
    routing = StaticRouting(net)
    graph = destination_based_buffer_graph(net, routing)
    rows: List[Dict[str, object]] = []
    for d in net.processors():
        sub = graph.subgraph_for_destination(d)
        rows.append(
            {
                "destination": net.name(d),
                "buffers": len(sub.nodes),
                "edges": len(sub.edges),
                "tree_shaped": len(sub.edges) == len(sub.nodes) - 1,
                "acyclic": sub.is_acyclic(),
            }
        )
    # The corrupted contrast: a 2-cycle in the tables for destination a.
    corrupted = ScriptedRouting(net)
    b, e = net.id_of("b"), net.id_of("e")
    corrupted.set_hop(b, net.id_of("a"), e)
    corrupted.set_hop(e, net.id_of("a"), b)
    bad_graph = destination_based_buffer_graph(net, corrupted)
    rows.append(
        {
            "destination": "a (corrupted tables)",
            "buffers": len(bad_graph.subgraph_for_destination(0).nodes),
            "edges": len(bad_graph.subgraph_for_destination(0).edges),
            "tree_shaped": False,
            "acyclic": bad_graph.subgraph_for_destination(0).is_acyclic(),
        }
    )
    return rows


def render_component() -> str:
    """ASCII rendering of b's component (the figure's right-hand side)."""
    net = paper_figure1_network()
    graph = destination_based_buffer_graph(net, StaticRouting(net))
    sub = graph.subgraph_for_destination(net.id_of("b"))
    lines = ["destination-based buffer graph, component of destination b:"]
    for u, v in sub.edges:
        lines.append(f"  b_{net.name(u.proc)}(b) -> b_{net.name(v.proc)}(b)")
    return "\n".join(lines)


def report() -> str:
    """Regenerate Figure 1's table and rendering."""
    rows = run_fig1()
    out = format_table(
        rows,
        columns=["destination", "buffers", "edges", "tree_shaped", "acyclic"],
        title="F1 / Figure 1 - destination-based buffer graph on the 5-processor network",
    )
    return out + "\n\n" + render_component()

