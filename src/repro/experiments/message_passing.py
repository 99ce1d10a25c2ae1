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

Every row is judged after its run by
:func:`~repro.runtime.conformance.check_events` over the nodes' event
logs, the verdict the live runtime gets.
"""

from __future__ import annotations

from typing import List

from repro.experiments.sweep import Row, Sweep, network_of, worst
from repro.messagepassing.forwarding import OFFER, MPForwardingNode, build_mp_network
from repro.network.properties import all_pairs_distances
from repro.routing.static import StaticRouting
from repro.runtime.conformance import (
    ConformanceReport,
    check_events,
    require_clean_start,
)

TOPOLOGIES = ("line(6)", "ring(6)", "star(6)", "grid(2x3)")


def _judge(nodes: List[MPForwardingNode]) -> ConformanceReport:
    """The verdict over every node's event log."""
    return check_events(event for node in nodes for event in node.events)


def _violations(report: ConformanceReport) -> int:
    return len(report.violations) + len(report.sequence_violations)


def run_clean(topology: str, seed: int, messages_per_proc: int = 2) -> Row:
    """Clean-start run: exactly-once plus handshake cost."""
    net = network_of(topology)
    sim, nodes = build_mp_network(net, StaticRouting(net), seed=seed)
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
    # Every message generated and delivered: one event each, two per message.
    sim.run(2_000_000, halt=lambda s: sum(len(n.events) for n in nodes) == 2 * count)
    report = require_clean_start(_judge(nodes))
    return {
        "topology": topology,
        "messages": count,
        "delivered_once": report.delivered - report.duplicates,
        "violations": _violations(report),
        "wire_msgs": sim.delivered_messages,
        "wire_per_hop": round(sim.delivered_messages / max(total_hops, 1), 2),
    }


def run_corrupted(topology: str, seed: int) -> Row:
    """One garbage OFFER in a channel toward processor 0 (destination 0):
    does valid traffic to 0 still arrive?"""
    net = network_of(topology)
    sim, nodes = build_mp_network(net, StaticRouting(net), seed=seed)
    neighbor = net.neighbors(0)[0]
    sim.inject(neighbor, 0, (OFFER, 0, "phantom", -1, False))
    src = max(net.processors())
    nodes[src].submit("real", 0)
    sim.run(300_000, raise_on_limit=False)
    report = _judge(nodes)
    return {
        "topology": topology,
        "messages": 1,
        "delivered_once": report.delivered - report.duplicates,
        "starved": int(bool(report.undelivered)),
        "safety_violations": _violations(report),
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
