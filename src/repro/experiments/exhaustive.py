"""Experiment X5 — exhaustive verification of small instances.

Model checking as evidence: for each small instance the checker enumerates
*every* configuration reachable under *every* daemon choice (including all
simultaneous selections) and checks the safety invariants in each.  The
table reports the state-space size and the verdict:

* the paper's protocol (corrected R5): zero violations on every instance —
  Lemmas 4-5 hold exhaustively, not just on sampled executions;
* the printed (literal) R5 and the colors-off ablation: the checker
  *finds the counterexample* — a concrete reachable execution losing a
  valid message — which is how the erratum in DESIGN.md was confirmed.

The closing ``line(4)`` instance (crossing flows plus planted garbage,
~54k states / ~434k transitions) is only practical with the snapshot
exploration engine — cloning the system per transition needs several
minutes for it, which is why earlier revisions of this table stopped at
3-processor lines.  See ``docs/verify.md``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.corruption import plant_invalid_message
from repro.errors import SpecificationViolation
from repro.network.topologies import line_network, paper_figure3_network
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.sim.reporting import format_table
from repro.verify.modelcheck import ModelChecker

from repro.app.higher_layer import HigherLayer
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.routing.static import StaticRouting


def _ssmfp(net, routing=None, **options):
    routing = routing if routing is not None else StaticRouting(net)
    return SSMFP(net, routing, HigherLayer(net.n), DeliveryLedger(), **options)


def _instances():
    def clean_pair():
        net = line_network(3)
        proto = _ssmfp(net)
        proto.hl.submit(0, "dup", 2)
        proto.hl.submit(0, "dup", 2)
        return proto

    def with_garbage():
        net = line_network(3)
        proto = _ssmfp(net)
        plant_invalid_message(proto, 2, 1, "E", "g", last=1, color=0)
        plant_invalid_message(proto, 0, 1, "R", "g", last=0, color=1)
        proto.hl.submit(0, "m", 2)
        return proto

    def corrupted_routing():
        net = line_network(3)
        routing = SelfStabilizingBFSRouting(net)
        routing.set_entry(2, 1, 1, 0)
        proto = _ssmfp(net, routing=routing)
        proto.hl.submit(0, "m", 2)
        return proto, [routing]

    def crossing_fig3():
        net = paper_figure3_network()
        proto = _ssmfp(net)
        proto.hl.submit(net.id_of("a"), "x", net.id_of("d"))
        proto.hl.submit(net.id_of("c"), "y", net.id_of("b"))
        return proto

    def literal_r5():
        net = line_network(3)
        proto = _ssmfp(net, r5_literal=True)
        proto.hl.submit(0, "dup", 2)
        proto.hl.submit(0, "dup", 2)
        return proto

    def colors_off():
        net = line_network(3)
        proto = _ssmfp(net, enable_colors=False)
        for _ in range(3):
            proto.hl.submit(0, "dup", 2)
        return proto

    def line4_crossing_garbage():
        net = line_network(4)
        proto = _ssmfp(net)
        plant_invalid_message(proto, 3, 1, "R", "g1", last=0)
        plant_invalid_message(proto, 0, 2, "R", "g2", last=3)
        proto.hl.submit(0, "a", 3)
        proto.hl.submit(3, "b", 0)
        return proto

    return [
        ("line(3), 2 same-payload msgs", clean_pair, True),
        ("line(3), garbage in 2 buffers", with_garbage, True),
        ("line(3), corrupted tables + live A", corrupted_routing, True),
        ("fig3 net, crossing flows", crossing_fig3, True),
        ("line(3), LITERAL R5 (erratum)", literal_r5, False),
        ("line(3), colors OFF (A1)", colors_off, False),
        ("line(4), crossing + garbage", line4_crossing_garbage, True),
    ]


def run_exhaustive() -> List[Dict[str, object]]:
    """Model-check every instance; returns the verdict rows."""
    rows: List[Dict[str, object]] = []
    for name, make, expect_safe in _instances():
        result = ModelChecker(
            make, max_states=500_000, max_selection_width=20_000
        ).run()
        rows.append(
            {
                "instance": name,
                "states": result.states,
                "transitions": result.transitions,
                "terminal": result.terminal_states,
                "violations": len(result.violations),
                "expected": "safe" if expect_safe else "counterexample",
                "verdict": (
                    "SAFE (exhaustive)"
                    if result.ok
                    else f"counterexample: {result.violations[0][:60]}"
                ),
            }
        )
    return rows


def render(rows: List[Dict[str, object]]) -> str:
    """Check the verdicts and format the X5 table from precomputed rows."""
    for row in rows:
        if (row["violations"] == 0) != (row["expected"] == "safe"):
            raise SpecificationViolation(str(row))
    return format_table(
        rows,
        columns=[
            "instance", "states", "transitions", "terminal",
            "violations", "verdict",
        ],
        title="X5 - exhaustive model checking: the protocol is safe in "
              "every reachable configuration; the ablated variants are not",
    )


def report() -> str:
    """Regenerate the X5 table."""
    return render(run_exhaustive())

