"""Experiments A1-A4 — ablating SSMFP's mechanisms one at a time.

Each ablation removes exactly one design element and exhibits the failure
that element exists to prevent:

* **A1 colors off** (``enable_colors=False``): ``color_p(d)`` returns 0
  always; R4 can confirm an emission against a *different* same-payload
  copy, erasing a message that was never forwarded — losses appear.
* **A2 unfair choice** (``choice_policy="fixed"``): the smallest-identity
  requester is always served first; a higher-identity requester behind a
  long stream waits linearly in the stream length (unbounded bypass),
  where the paper's FIFO queue bounds the bypass by Δ.
* **A3 R5 disabled** (``enable_r5=False``): after a routing change, the
  stale copy at the old next hop is never erased, R4's uniqueness check
  blocks forever, and the message wedges — the execution cannot drain.
* **A4 literal R5** (``r5_literal=True``): the printed rule without the
  ``q != p`` disambiguation erases a freshly generated message whose
  payload and color collide with the local emission buffer (the erratum
  documented in DESIGN.md).
"""

from __future__ import annotations

from typing import Dict, List

from repro.app.higher_layer import HigherLayer
from repro.app.workload import adversarial_same_payload_workload
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.network.graph import Network
from repro.network.topologies import line_network, ring_network, star_network
from repro.routing.scripted import ScriptedRouting
from repro.routing.static import StaticRouting
from repro.sim.reporting import format_table
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import AdversarialScriptDaemon, RoundRobinDaemon
from repro.statemodel.scheduler import Simulator


def run_a1_colors(seeds=range(12)) -> Dict[str, object]:
    """A1: same-payload streams under corrupted tables, colors disabled
    vs enabled.  Counts specification violations (losses/duplications)."""
    results = {"ablation": "A1 colors off"}
    for colors_on in (True, False):
        losses = 0
        undelivered = 0
        for seed in seeds:
            net = ring_network(6)
            sim = build_simulation(
                net,
                workload=adversarial_same_payload_workload(0, 3, 8),
                routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
                garbage={"fraction": 0.5, "seed": seed},
                ledger_strict=False,
                seed=seed,
                protocol_options={"enable_colors": colors_on},
            )
            sim.run(300_000, halt=delivered_and_drained, raise_on_limit=False)
            losses += sim.ledger.lost_count
            undelivered += len(sim.ledger.outstanding_uids())
        key = "with_colors" if colors_on else "without_colors"
        results[f"losses_{key}"] = losses
        results[f"undelivered_{key}"] = undelivered
    return results


def run_a2_fairness(stream_lengths=(2, 6, 12, 20)) -> List[Dict[str, object]]:
    """A2: one victim message behind a growing stream from a smaller-id
    competitor, FIFO vs fixed-priority choice.  Reports the victim's
    generation->delivery step latency; fixed should grow with the stream,
    FIFO should not."""
    rows: List[Dict[str, object]] = []
    for policy in ("fifo", "fixed"):
        for k in stream_lengths:
            net = star_network(4)  # center 0, leaves 1, 2, 3
            hl = HigherLayer(net.n)
            ledger = DeliveryLedger()
            proto = SSMFP(
                net, StaticRouting(net), hl, ledger, choice_policy=policy
            )
            # Leaf 1 streams k messages to leaf 3; leaf 2's single message
            # to leaf 3 is the victim (identity 2 > 1 loses under "fixed").
            for i in range(k):
                hl.submit(1, f"s{i}", 3)
            hl.submit(2, "victim", 3)
            sim = Simulator(net.n, PriorityStack([proto]), RoundRobinDaemon())
            victim_delivery = None
            for _ in range(100_000):
                if sim.step().terminal:
                    break
                for pid, msg, step in hl.delivered:
                    if msg.payload == "victim":
                        victim_delivery = step
                if victim_delivery is not None:
                    break
            rows.append(
                {
                    "ablation": "A2 choice policy",
                    "policy": policy,
                    "competing_stream": k,
                    "victim_delivered_at_step": victim_delivery,
                }
            )
    return rows


def run_a3_r5() -> List[Dict[str, object]]:
    """A3: a deterministic routing change mid-handshake; with R5 the stale
    copy is cleaned and the message arrives, without R5 the execution
    wedges with the message undelivered."""
    rows: List[Dict[str, object]] = []
    for r5_on in (True, False):
        # A line of 4 plus the edge 1-3, which gives processor 1 a second
        # route for destination 3.
        net = Network(4, [(0, 1), (1, 2), (2, 3), (1, 3)])
        routing = ScriptedRouting(net)
        routing.set_hop(1, 3, 2)  # initially via 2 (the long way)
        hl = HigherLayer(net.n)
        ledger = DeliveryLedger()
        proto = SSMFP(net, routing, hl, ledger, enable_r5=r5_on)
        hl.submit(1, "m", 3)
        script = [
            [(1, "R1", 3)],
            [(1, "R2", 3)],
            [(2, "R3", 3)],  # copy sits at the old next hop 2
        ]
        daemon = AdversarialScriptDaemon(script)
        sim = Simulator(net.n, PriorityStack([proto]), daemon)
        for _ in range(len(script)):
            sim.step()
        routing.repair_all()  # next hop of 1 for 3 becomes 3 directly
        wedged = False
        for _ in range(10_000):
            report = sim.step()
            if report.terminal:
                wedged = not ledger.all_valid_delivered()
                break
        rows.append(
            {
                "ablation": "A3 R5 disabled" if not r5_on else "A3 R5 enabled",
                "delivered": ledger.valid_delivered_count,
                "wedged": wedged,
                "stale_copy_remains": proto.bufs.get_r(3, 2) is not None,
            }
        )
    return rows


def run_a4_literal_r5(seeds=range(20)) -> Dict[str, object]:
    """A4: the printed R5 vs the corrected rule on same-payload streams.
    Counts messages lost by the literal rule (the erratum)."""
    results = {"ablation": "A4 literal R5"}
    for literal in (False, True):
        losses = 0
        for seed in seeds:
            net = line_network(5)
            sim = build_simulation(
                net,
                workload=adversarial_same_payload_workload(0, 4, 10),
                ledger_strict=False,
                seed=seed,
                routing_mode="static",
                protocol_options={"r5_literal": literal},
            )
            sim.run(300_000, halt=delivered_and_drained, raise_on_limit=False)
            losses += sim.ledger.lost_count
        results["losses_literal" if literal else "losses_corrected"] = losses
    return results


def report() -> str:
    """Regenerate all four ablation tables."""
    parts = [
        format_table([run_a1_colors()], title="A1 - disabling the color flag"),
        format_table(
            run_a2_fairness(),
            columns=[
                "ablation", "policy", "competing_stream",
                "victim_delivered_at_step",
            ],
            title="A2 - unfair choice policy starves the victim",
        ),
        format_table(
            run_a3_r5(),
            columns=["ablation", "delivered", "wedged", "stale_copy_remains"],
            title="A3 - without R5 a routing change wedges the handshake",
        ),
        format_table([run_a4_literal_r5()], title="A4 - the literal-R5 erratum"),
    ]
    return "\n\n".join(parts)

