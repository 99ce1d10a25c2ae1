"""Experiment X7 — congestion behavior under growing offered load.

The paper's analysis is worst-case per message (P5) and amortized (P7);
this study measures the *system* view: inject B messages at once and watch
the drain.  Reported per load level: rounds to drain, amortized rounds per
delivery, peak buffer occupancy, and throughput (deliveries per round).
The expected shape — and what the pipelining of the two-buffer scheme
delivers — is stable amortized cost and throughput as load grows (drain
time scales linearly with load, occupancy saturates at the buffer supply,
nothing collapses).
"""

from __future__ import annotations

from typing import Dict, List

from repro.app.workload import hotspot_per_source, hotspot_workload, uniform_workload
from repro.experiments.sweep import Row, Sweep, worst
from repro.network.topologies import grid_network, ring_network
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.sim.stats import jain_index


def run_one(topology: str, pattern: str, load: int, seed: int) -> Row:
    """One burst-drain run at the given offered load."""
    net = ring_network(10) if topology == "ring" else grid_network(3, 4)
    if pattern == "hotspot":
        workload = hotspot_workload(
            net.n, dest=0, per_source=hotspot_per_source(load, net.n), seed=seed
        )
    else:
        workload = uniform_workload(net.n, load, seed=seed)
    sim = build_simulation(net, workload=workload, routing_mode="static", seed=seed)
    peak = 0

    def watch_occupancy(sim) -> None:
        nonlocal peak
        peak = max(peak, sim.forwarding.bufs.total_occupied())

    sim.run(5_000_000, halt=delivered_and_drained, before_step=watch_occupancy)
    delivered = sim.ledger.valid_delivered_count
    rounds = max(sim.sim.round_count, 1)
    # Fairness across sources: Jain's index over per-source mean latency
    # (1.0 = perfectly even service — the `choice` queues at work).
    per_source: Dict[int, List[int]] = {}
    for uid in sim.ledger.generated_uids():
        lat = sim.ledger.latency_steps(uid)
        if lat is not None:
            source = sim.ledger.generation_info(uid)[0]
            per_source.setdefault(source, []).append(lat)
    fairness = jain_index(
        [sum(v) / len(v) for v in per_source.values() if v]
    )
    return {
        "topology": topology,
        "pattern": pattern,
        "offered": workload.size,
        "delivered": delivered,
        "drain_rounds": sim.sim.round_count,
        "amortized": round(rounds / max(delivered, 1), 2),
        "throughput": round(delivered / rounds, 2),
        "peak_buffers": peak,
        "fairness_jain": round(fairness, 3) if fairness is not None else None,
    }


SWEEP = Sweep(
    title="X7 - burst drain under growing load: amortized cost and "
          "throughput stay stable (worst of seeds)",
    run_one=run_one,
    axes={
        "topology": ("ring", "grid"),
        "pattern": ("uniform", "hotspot"),
        "load": (8, 16, 32, 64),
    },
    seeds=(1, 2),
    fold=worst(lambda row: row["drain_rounds"]),
)
