"""Experiment P7 — Proposition 7: the amortized complexity is
O(max(R_A, D)) rounds per delivered message.

The Δ^D worst case of Proposition 5 is paid because other messages keep
passing one victim; *in aggregate* the system delivers at least one message
every 3D rounds, so rounds ÷ deliveries grows like D, not Δ^D.  The
experiment saturates networks of growing diameter with hotspot traffic and
reports the amortized measure, contrasting it with the per-message worst
case: amortized cost must scale linearly with D (ratio/D roughly constant)
and sit far below Δ^D.
"""

from __future__ import annotations

from repro.app.workload import hotspot_workload
from repro.experiments.sweep import Row, Sweep, worst
from repro.network.properties import diameter, max_degree
from repro.network.topologies import topology_by_name
from repro.sim.metrics import amortized_rounds_per_delivery
from repro.sim.runner import build_simulation, delivered_and_drained


def run_one(topology: str, n: int, seed: int, per_source: int = 3, corrupted: bool = False) -> Row:
    """Heavy hotspot run; returns the amortized row."""
    net = topology_by_name(topology, n)
    dest = 0
    sim = build_simulation(
        net,
        workload=hotspot_workload(net.n, dest=dest, per_source=per_source, seed=seed),
        routing_corruption={"kind": "worst", "seed": seed} if corrupted else None,
        seed=seed,
    )
    result = sim.run(5_000_000, halt=delivered_and_drained)
    delivered = sim.ledger.valid_delivered_count
    amortized = amortized_rounds_per_delivery(result.rounds, delivered)
    delta = max_degree(net)
    diam = diameter(net)
    return {
        "topology": topology,
        "n": n,
        "D": diam,
        "delta^D": delta ** diam,
        "tables": "corrupted" if corrupted else "correct",
        "delivered": delivered,
        "total_rounds": result.rounds,
        "amortized_rounds": amortized,
        "amortized/D": amortized / diam if amortized is not None else None,
    }


SWEEP = Sweep(
    title="P7 / Proposition 7 - amortized rounds per delivery scales "
          "with D (not Delta^D), worst of seeds",
    run_one=run_one,
    axes={
        "topology": ("line", "ring"),
        "n": (6, 10, 14, 18),
        "corrupted": (False, True),
    },
    seeds=(1, 2),
    fold=worst(lambda row: row["amortized_rounds"] or 0),
)
