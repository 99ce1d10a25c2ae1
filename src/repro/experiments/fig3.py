"""Experiment F3 — Figure 3: the paper's worked execution, replayed.

The figure walks the protocol through thirteen configurations on a Δ = 3
network: routing tables start corrupted with a cycle between ``a`` and
``c`` for destination ``b``, an invalid message ``m'`` sits in ``b``'s
reception buffer, and ``c`` emits first ``m`` and then a valid ``m'``
carrying *the same useful information* as the invalid one.  The narration's
checkpoints — ``m`` recolored to 1 because 0 is taken, the valid ``m'``
recolored to 2, the color flag preventing the merge of the two ``m'``
messages, and all three messages delivered — are asserted configuration by
configuration.

The routing algorithm is the figure's abstract ``A``: tables are repaired
at exactly the step the narration repairs them (see
:mod:`repro.routing.scripted` for why a concrete eager ``A`` cannot replay
this figure under the priority composition).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.app.higher_layer import HigherLayer
from repro.core.invariants import InvariantChecker
from repro.core.corruption import plant_invalid_message
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.errors import InvariantViolation
from repro.network.topologies import paper_figure3_network
from repro.routing.scripted import ScriptedRouting
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import AdversarialScriptDaemon
from repro.statemodel.scheduler import Simulator


@dataclass
class Fig3Report:
    """Everything the replay produced: per-configuration snapshots, the
    delivery log, and the assertions that were checked."""

    configurations: List[Dict[str, object]] = field(default_factory=list)
    deliveries: List[str] = field(default_factory=list)
    checks: List[str] = field(default_factory=list)


def run_fig3() -> Fig3Report:
    """Replay the figure; raises AssertionError if any narrated checkpoint
    fails, SpecificationViolation/InvariantViolation if the protocol
    misbehaves."""
    net = paper_figure3_network()
    a, b, c = net.id_of("a"), net.id_of("b"), net.id_of("c")

    routing = ScriptedRouting(net)
    routing.set_hop(a, b, c)  # the corrupted cycle a <-> c for destination b
    routing.set_hop(c, b, a)

    hl = HigherLayer(net.n)
    ledger = DeliveryLedger(strict=True)
    proto = SSMFP(net, routing, hl, ledger)
    checker = InvariantChecker(proto)

    # Initial configuration (0): the invalid message m' (payload "m2",
    # color 0) in b's reception buffer; c wants to send m then m'.
    invalid = plant_invalid_message(proto, b, b, "R", "m2", last=b, color=0)
    hl.submit(c, "m", b)
    hl.submit(c, "m2", b)

    script = [
        [(c, "R1", b)],                  # (1) c generates m, color 0
        [(c, "R2", b)],                  # (2) m -> bufE_c with color 1
        [(a, "R3", b), (c, "R1", b)],    # (3) m copied to a; c generates m'
        [(c, "R4", b)],                  # m's original erased at c ...
        [(c, "R2", b)],                  # (4) ... and m' -> bufE_c, color 2
        [(a, "R2", b)],                  # (5) tables repaired + m -> bufE_a
        [(b, "R2", b)],                  # (6..) the drain: invalid m' commits
        [(b, "R3", b)],                  #      valid m' copied into b (c is
                                         #      ahead of a in b's FIFO queue)
        [(c, "R4", b), (b, "R6", b)],    #      invalid m' delivered
        [(b, "R2", b)],
        [(b, "R6", b)],                  #      valid m' delivered
        [(b, "R3", b)],                  #      m copied into b
        [(a, "R4", b)],
        [(b, "R2", b)],
        [(b, "R6", b)],                  #      m delivered
    ]
    daemon = AdversarialScriptDaemon(script)
    sim = Simulator(net.n, PriorityStack([proto]), daemon)

    report = Fig3Report()

    def check(condition: bool, text: str) -> None:
        if not condition:
            raise InvariantViolation(f"figure-3 checkpoint failed: {text}")
        report.checks.append(text)

    def record(idx: int) -> None:
        snap = {"config": idx}
        snap.update(
            {
                key.replace(str(a), "a").replace(str(b), "b")
                    .replace(str(c), "c").replace("3", "d"): value
                for key, value in sorted(proto.dump().items())
            }
        )
        report.configurations.append(snap)

    record(0)
    check(proto.bufs.get_r(b, b).uid == invalid.uid, "invalid m' present at b in (0)")

    for idx in range(len(script)):
        if idx == 5:
            routing.repair_all()  # "routing tables are repaired during the next step"
        sim.step()
        checker.check()
        record(idx + 1)

        if idx == 0:
            check(
                proto.bufs.get_r(b, c).matches("m", c, 0),
                "(1) m generated in bufR_c(b) with color 0",
            )
        elif idx == 1:
            check(
                proto.bufs.get_e(b, c).matches("m", c, 1),
                "(2) m recolored to 1 in bufE_c(b) because 0 is forbidden",
            )
        elif idx == 2:
            check(
                proto.bufs.get_r(b, a).matches("m", c, 1),
                "(3) m copied to bufR_a(b), color kept",
            )
            check(
                proto.bufs.get_r(b, c).matches("m2", c, 0),
                "(3) valid m' generated at c with the invalid one's payload",
            )
        elif idx == 4:
            check(
                proto.bufs.get_e(b, c).matches("m2", c, 2),
                "(4) m' recolored to 2 (0 and 1 both forbidden)",
            )
        elif idx == 5:
            check(routing.is_correct(), "(5) routing tables repaired")
            check(
                proto.bufs.get_e(b, a).matches("m", a, 1),
                "(5) a forwarded m into its emission buffer",
            )
            valid_mp = proto.bufs.get_e(b, c)
            check(
                valid_mp is not None
                and not valid_mp.same_payload_color(proto.bufs.get_e(b, a)),
                "(5) colors keep the two same-payload messages distinct",
            )

    for pid, msg, step in hl.delivered:
        tag = "valid" if msg.valid else "invalid"
        report.deliveries.append(
            f"step {step}: {tag} message payload={msg.payload!r} delivered at "
            f"{net.name(pid)}"
        )

    check(ledger.valid_delivered_count == 2, "both valid messages delivered")
    check(ledger.invalid_delivery_count == 1, "the invalid message delivered once")
    check(ledger.all_valid_delivered(), "no valid message lost")
    check(proto.network_is_empty(), "network drained at the end")
    return report


def report() -> str:
    """Regenerate Figure 3 as a configuration-by-configuration transcript."""
    replay = run_fig3()
    lines = ["F3 / Figure 3 - worked execution replay (destination b)"]
    for snap in replay.configurations:
        idx = snap.pop("config")
        state = ", ".join(f"{k}={v}" for k, v in snap.items()) or "(empty)"
        lines.append(f"  ({idx:>2}) {state}")
    lines.append("")
    lines.extend(replay.deliveries)
    lines.append("")
    lines.append(f"checked {len(replay.checks)} narrated checkpoints, all hold")
    return "\n".join(lines)

