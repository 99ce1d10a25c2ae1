"""Experiment F4 — Figure 4: the caterpillar taxonomy.

Reconstructs the figure's four pictured cases (two caterpillars of type 1,
one of type 2, one of type 3) on the example network and classifies them
with :mod:`repro.core.caterpillar`; then tabulates how caterpillar type
counts evolve along a live execution (every stored valid message belongs to
a caterpillar at every configuration — the progress measure of Lemma 1).
"""

from __future__ import annotations

from itertools import count
from typing import Dict, List

from repro.app.higher_layer import HigherLayer
from repro.core.caterpillar import all_caterpillars, caterpillars_at, classify_types
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.network.topologies import line_network
from repro.routing.static import StaticRouting
from repro.sim.reporting import format_table
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import RoundRobinDaemon
from repro.statemodel.scheduler import Simulator


def _fresh(net):
    hl = HigherLayer(net.n)
    return SSMFP(net, StaticRouting(net), hl, DeliveryLedger())


def run_fig4_cases() -> List[Dict[str, object]]:
    """The four pictured caterpillar cases, classified."""
    net = line_network(5)
    rows: List[Dict[str, object]] = []

    # Case 1: type 1, locally generated (q = p).
    proto = _fresh(net)
    msg = proto.factory.generated("m", 1, 4, 0, 0)
    proto.ledger.record_generated(msg)
    proto.bufs.set_r(4, 1, msg)
    cats = caterpillars_at(proto, 1, 4)
    rows.append({"case": "type 1 (q = p)", "classified": cats[0].ctype, "buffers": len(cats[0].buffers)})

    # Case 2: type 1, received and source erased (bufE_q != (m,·,c)).
    proto = _fresh(net)
    msg = proto.factory.generated("m", 1, 4, 1, 0).recolored(1, 1)
    proto.ledger.record_generated(msg)
    proto.bufs.set_r(4, 2, msg.forwarded_copy(1))
    cats = caterpillars_at(proto, 2, 4)
    rows.append({"case": "type 1 (source erased)", "classified": cats[0].ctype, "buffers": len(cats[0].buffers)})

    # Case 3: type 2, emitted but not yet copied downstream.
    proto = _fresh(net)
    msg = proto.factory.generated("m", 2, 4, 1, 0).recolored(2, 1)
    proto.ledger.record_generated(msg)
    proto.bufs.set_e(4, 2, msg)
    cats = caterpillars_at(proto, 2, 4)
    rows.append({"case": "type 2", "classified": cats[0].ctype, "buffers": len(cats[0].buffers)})

    # Case 4: type 3, copied downstream, original not yet erased.
    proto = _fresh(net)
    msg = proto.factory.generated("m", 2, 4, 1, 0).recolored(2, 1)
    proto.ledger.record_generated(msg)
    proto.bufs.set_e(4, 2, msg)
    proto.bufs.set_r(4, 3, msg.forwarded_copy(2))
    cats = [c for c in caterpillars_at(proto, 2, 4) if c.ctype == 3]
    rows.append({"case": "type 3", "classified": cats[0].ctype, "buffers": len(cats[0].buffers)})
    return rows


def run_fig4_evolution() -> List[Dict[str, object]]:
    """Caterpillar type counts along a live execution (destination 4).

    The execution runs to its terminal configuration."""
    net = line_network(5)
    proto = _fresh(net)
    for i in range(3):
        proto.hl.submit(0, f"m{i}", 4)
    sim = Simulator(net.n, PriorityStack([proto]), RoundRobinDaemon())
    rows: List[Dict[str, object]] = []
    for step in count():
        t1, t2, t3 = classify_types(proto, 4)
        stored = sum(1 for *_x, m in proto.bufs.iter_messages() if m.valid)
        rows.append(
            {
                "step": step,
                "type1": t1,
                "type2": t2,
                "type3": t3,
                "stored_valid": stored,
                "delivered": proto.ledger.valid_delivered_count,
            }
        )
        if sim.step().terminal:
            break
    return rows


def report() -> str:
    """Regenerate Figure 4's cases and the caterpillar-evolution table."""
    cases = format_table(
        run_fig4_cases(),
        columns=["case", "classified", "buffers"],
        title="F4 / Figure 4 - the four pictured caterpillar cases",
    )
    evolution = format_table(
        [
            r for r in run_fig4_evolution()
            if r["step"] < 40 and r["step"] % 4 == 0
        ],
        columns=["step", "type1", "type2", "type3", "stored_valid", "delivered"],
        title="caterpillar evolution along a live execution (every 4th step)",
    )
    return cases + "\n\n" + evolution

