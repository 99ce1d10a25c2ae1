"""Experiment X1 — the §4 open problem, quantified.

The paper closes asking for the minimal number of buffers per processor
that still allows snap-stabilizing forwarding, pointing at the
acyclic-orientation-cover scheme (3 buffers on a ring, 2 on a tree —
but NP-hard to size in general).  This experiment measures, per topology:

* the SSMFP scheme's cost (2n buffers per processor — two per
  destination),
* the destination-based scheme's cost (n), and
* the orientation-cover cost our constructions/heuristic achieve
  against the actual shortest-path routing function (exact 2 on trees,
  exact 3 on rings, greedy elsewhere),

making concrete how much head-room the open problem is about.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.app.higher_layer import HigherLayer
from repro.baselines.orientation_forwarding import OrientationForwarding
from repro.buffergraph.orientation_cover import (
    greedy_cover,
    orientation_cover_buffer_graph,
    ring_cover,
    tree_cover,
)
from repro.core.ledger import DeliveryLedger
from repro.errors import InvariantViolation
from repro.experiments.sweep import network_of
from repro.network.graph import Network
from repro.routing.static import StaticRouting
from repro.sim.reporting import format_table
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import DistributedRandomDaemon
from repro.statemodel.scheduler import Simulator

#: Table label -> what the label does not show (the random families' seed).
CASES = {
    "line(8)": {},
    "star(8)": {},
    "random_tree(9)": {"seed": 5},
    "ring(8)": {},
    "ring(12)": {},
    "grid(3x3)": {},
    "hypercube(3)": {},
    "random(9,5)": {"seed": 7},
}


def _cover(net: Network, routing: StaticRouting) -> Tuple[object, str]:
    """The orientation cover our constructions achieve on ``net`` and the
    method that found it (exact on trees and rings, greedy elsewhere)."""
    if net.m == net.n - 1:
        return tree_cover(net), "tree (exact)"
    if net.m == net.n and all(net.degree(p) == 2 for p in net.processors()):
        return ring_cover(net, routing), "mountain (exact)"
    return greedy_cover(net, routing=routing), "greedy (heuristic)"


def run_one(case: str) -> Dict[str, object]:
    """Buffer requirements of the three schemes on one topology."""
    net = network_of(case, **CASES[case])
    routing = StaticRouting(net)
    cover, method = _cover(net, routing)
    if not cover.is_valid_for_routing(routing):
        raise InvariantViolation(f"{case}: the cover misses a routing path")
    if not orientation_cover_buffer_graph(cover).is_acyclic():
        raise InvariantViolation(f"{case}: the cover's buffer graph has a cycle")
    return {
        "topology": case,
        "n": net.n,
        "ssmfp_buffers_per_proc": 2 * net.n,
        "dest_based_per_proc": net.n,
        "orientation_cover_per_proc": cover.size,
        "method": method,
        "savings_vs_ssmfp": f"{2 * net.n / cover.size:.1f}x",
    }


def run_open_problem() -> List[Dict[str, object]]:
    """All topologies."""
    return [run_one(case) for case in CASES]


def run_live(case: str) -> Dict[str, object]:
    """Actually *run* the orientation-cover forwarding protocol: deliver a
    workload of two messages per processor with only s buffers per
    processor (exactly-once, strict ledger), demonstrating the scheme works
    fault-free at the counts the open problem asks about."""
    net = network_of(case, **CASES[case])
    routing = StaticRouting(net)
    cover, _ = _cover(net, routing)
    hl = HigherLayer(net.n)
    proto = OrientationForwarding(net, routing, cover, hl, DeliveryLedger())
    sim = Simulator(net.n, PriorityStack([proto]), DistributedRandomDaemon(seed=0))
    count = 0
    for p in net.processors():
        for i in range(2):
            dest = (p + 1 + i) % net.n
            if dest != p:
                hl.submit(p, f"m{p}.{i}", dest)
                count += 1
    for _ in range(1_000_000):
        if proto.ledger.valid_delivered_count >= count:
            break
        if sim.step().terminal:
            break
    return {
        "topology": case,
        "buffers_per_proc": cover.size,
        "messages": count,
        "delivered_once": proto.ledger.valid_delivered_count,
        "steps": sim.step_count,
    }


def report() -> str:
    """Regenerate the X1 tables."""
    rows = run_open_problem()
    structure = format_table(
        rows,
        columns=[
            "topology", "n", "ssmfp_buffers_per_proc", "dest_based_per_proc",
            "orientation_cover_per_proc", "method", "savings_vs_ssmfp",
        ],
        title="X1a - buffers per processor: SSMFP (snap-stabilizing) vs the "
              "fault-free orientation-cover scheme (the open problem's gap)",
    )
    live = format_table(
        [run_live(case) for case in CASES],
        columns=[
            "topology", "buffers_per_proc", "messages", "delivered_once",
            "steps",
        ],
        title="X1b - the cover scheme running: exactly-once delivery at "
              "s buffers per processor (strict ledger, correct tables)",
    )
    return structure + "\n\n" + live

