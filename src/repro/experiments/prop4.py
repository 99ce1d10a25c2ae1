"""Experiment P4 — Proposition 4: at most 2n invalid messages are
delivered to a destination.

The adversarial initial configuration fills *all 2n buffers* of one
destination's component with distinct invalid messages (the proposition's
worst case), corrupts the routing tables, and runs to quiescence.  The
measured number of invalid deliveries at the destination must never exceed
2n; the table reports how close the adversary gets to the bound across
topologies and sizes.
"""

from __future__ import annotations

from typing import List

from repro.core.corruption import fill_all_buffers, scramble_queues
from repro.errors import SpecificationViolation
from repro.experiments.sweep import Row, Sweep, worst
from repro.network.topologies import topology_by_name
from repro.sim.runner import build_simulation, fully_quiescent


def run_one(topology: str, n: int, seed: int) -> Row:
    """One adversarial run on destination 0; returns the measured row."""
    net = topology_by_name(topology, n)
    sim = build_simulation(
        net,
        routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
        seed=seed,
    )
    planted = fill_all_buffers(sim.forwarding, d=0, seed=seed)
    scramble_queues(sim.forwarding, seed=seed + 1)
    sim.run(2_000_000, halt=fully_quiescent)
    delivered = sim.ledger.invalid_deliveries_by_destination().get(0, 0)
    bound = 2 * net.n
    return {
        "topology": topology,
        "n": n,
        "planted": planted,
        "bound_2n": bound,
        "invalid_delivered": delivered,
        "ratio": delivered / bound,
        "within_bound": delivered <= bound,
    }


def _checked(rows: List[Row]) -> List[Row]:
    if not all(r["within_bound"] for r in rows):
        raise SpecificationViolation("Proposition 4 violated!")
    return rows


SWEEP = Sweep(
    title="P4 / Proposition 4 - invalid deliveries vs the 2n bound "
          "(worst of seeds, all buffers initially full of garbage)",
    run_one=run_one,
    axes={"topology": ("line", "ring", "star"), "n": (4, 6, 8, 10)},
    seeds=(1, 2, 3),
    fold=worst(lambda row: row["invalid_delivered"]),
    derive=_checked,
)
