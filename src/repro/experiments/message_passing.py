"""Experiment X3 — the §4 future work: SSMFP in the message-passing model.

The port (see :mod:`repro.messagepassing`) translates each state-model hop
into an OFFER/ACCEPT/RELEASE handshake over FIFO channels.  Two tables:

* **clean starts** — exactly-once delivery and handshake cost (wire
  messages per delivered application message ≈ 3 per hop) across
  topologies and adversarial schedules;
* **corrupted channels** — one garbage OFFER per run: the phantom wedges
  a reception buffer (no RELEASE will ever come) and valid traffic
  through it starves, while the same adversary cannot break safety
  (forged ACCEPTs are absorbed).  The liveness column is the measured
  face of the open problem.
"""

from __future__ import annotations

from repro.core.ledger import DeliveryLedger
from repro.experiments.sweep import Row, Sweep, network_of, worst
from repro.messagepassing.forwarding import OFFER, build_mp_network
from repro.network.properties import all_pairs_distances
from repro.routing.static import StaticRouting

TOPOLOGIES = ("line(6)", "ring(6)", "star(6)", "grid(2x3)")


def run_clean(topology: str, seed: int, messages_per_proc: int = 2) -> Row:
    """Clean-start run: exactly-once plus handshake cost."""
    net = network_of(topology)
    sim, nodes, ledger = build_mp_network(net, StaticRouting(net), seed=seed)
    dist = all_pairs_distances(net)
    total_hops = 0
    count = 0
    for p in net.processors():
        for i in range(messages_per_proc):
            dest = (p + 1 + i) % net.n
            if dest == p:
                continue
            nodes[p].submit(f"m{p}.{i}", dest)
            total_hops += dist[p][dest]
            count += 1
    sim.run(
        2_000_000,
        halt=lambda s: ledger.all_valid_delivered()
        and ledger.generated_count == count,
    )
    return {
        "topology": topology,
        "messages": count,
        "delivered_once": ledger.valid_delivered_count,
        "violations": 0,  # strict ledger would have raised
        "wire_msgs": sim.delivered_messages,
        "wire_per_hop": round(sim.delivered_messages / max(total_hops, 1), 2),
    }


def run_corrupted(topology: str, seed: int) -> Row:
    """One garbage OFFER in a channel toward processor 0 (destination 0):
    does valid traffic to 0 still arrive?"""
    net = network_of(topology)
    ledger = DeliveryLedger(strict=False)
    sim, nodes, ledger = build_mp_network(
        net, StaticRouting(net), seed=seed, ledger=ledger
    )
    neighbor = net.neighbors(0)[0]
    sim.inject(neighbor, 0, (OFFER, 0, "phantom", -1, False))
    src = max(net.processors())
    nodes[src].submit("real", 0)
    sim.run(300_000, raise_on_limit=False)
    return {
        "topology": topology,
        "messages": 1,
        "delivered_once": ledger.valid_delivered_count,
        "starved": int(not ledger.all_valid_delivered()),
        "safety_violations": len(ledger.violations),
    }


CLEAN = Sweep(
    title="X3a - message-passing port, clean starts: exactly-once and "
          "handshake cost (3 wire messages per hop + offers queued)",
    run_one=run_clean,
    axes={"topology": TOPOLOGIES},
    seeds=(1, 2),
    fold=worst(lambda row: row["wire_msgs"]),
)

CORRUPTED = Sweep(
    title="X3b - one garbage OFFER in a channel: liveness starves "
          "(the open problem), safety holds",
    run_one=run_corrupted,
    axes={"topology": TOPOLOGIES},
    seeds=(1,),
    fold=worst(lambda row: row["starved"]),
)


def report(seeds=CLEAN.seeds) -> str:
    """Regenerate the X3 tables (the corrupted one at the first seed)."""
    return CLEAN.report(seeds=seeds) + "\n\n" + CORRUPTED.report(seeds=seeds[:1])
