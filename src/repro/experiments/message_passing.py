"""Experiment X3 — the §4 future work: SSMFP in the message-passing model.

This repository's port (see :mod:`repro.messagepassing`) is
:class:`~repro.runtime.hop.HopCore`, the lane protocol the live runtime
ships, run by :class:`~repro.messagepassing.forwarding.HopMPNode` on the
seeded message-passing engine.  One table:

* **clean starts** — exactly-once delivery and the record cost per hop
  (DATA, ACK and release records over the channels, divided by the hops
  the messages travel) at windows 1 and 4, across topologies and
  adversarial schedules.  Every processor sends several messages to one
  neighbor-ward destination, so each lane carries a stream and a wider
  window can pipeline it.

Every row is judged after its run by
:func:`~repro.runtime.conformance.check_events` over the nodes' event
logs, the verdict the live runtime gets.
"""

from __future__ import annotations

from repro.experiments.sweep import Row, Sweep, network_of, worst
from repro.messagepassing.forwarding import build_mp_network
from repro.network.properties import all_pairs_distances
from repro.routing.static import StaticRouting
from repro.runtime.conformance import check_events, require_clean_start
from repro.runtime.hop import RuntimeParams

TOPOLOGIES = ("line(6)", "ring(6)", "star(6)", "grid(2x3)")
WINDOWS = (1, 4)
#: Messages each processor sends to its successor: several per lane.
PER_SOURCE = 6


def run_clean(topology: str, window: int, seed: int) -> Row:
    """Clean-start run: exactly-once plus record cost per hop.

    Every processor ``p`` sends :data:`PER_SOURCE` messages to ``p + 1``;
    the run is drained to quiescence."""
    net = network_of(topology)
    sim, nodes = build_mp_network(
        net, StaticRouting(net), seed=seed, params=RuntimeParams(window=window)
    )
    dist = all_pairs_distances(net)
    total_hops = 0
    for p in net.processors():
        dest = (p + 1) % net.n
        for i in range(PER_SOURCE):
            nodes[p].submit(f"m{p}.{i}", dest)
        total_hops += PER_SOURCE * dist[p][dest]
    count = PER_SOURCE * net.n
    # Quiescent once every core is idle: delivered, acknowledged, released.
    sim.run(2_000_000)
    report = require_clean_start(check_events(
        (event for node in nodes for event in node.events),
        expect_generated=count,
    ))
    return {
        "topology": topology,
        "window": window,
        "messages": count,
        "delivered_once": report.delivered - report.duplicates,
        "violations": len(report.violations) + len(report.sequence_violations),
        "records": sim.delivered_messages,
        "records_per_hop": round(sim.delivered_messages / total_hops, 2),
        "retries": sum(node.core.counters["retries"] for node in nodes),
    }


CLEAN = Sweep(
    title="X3a - HopCore on the message-passing engine, clean starts: "
          "exactly-once and records per hop at windows 1 and 4",
    run_one=run_clean,
    axes={"topology": TOPOLOGIES, "window": WINDOWS},
    seeds=(1, 2),
    fold=worst(lambda row: row["records"]),
)


def report(seeds=CLEAN.seeds) -> str:
    """Regenerate the X3 table."""
    return CLEAN.report(seeds=seeds)
