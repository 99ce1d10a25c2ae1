"""Experiment X4 — exactly-once under *sustained* transient faults.

The propositions assume one arbitrary initial configuration; operationally
transient faults recur.  This experiment re-corrupts a fraction of the live
routing tables every ``period`` steps while traffic flows, and measures:

* safety — zero losses/duplications regardless of fault pressure (the
  strict ledger checks every run);
* the price — rounds to drain vs the fault-free run, as fault pressure
  (injection frequency x corruption fraction) grows.

Faults stop at ``stop_after``; the drain deadline then exists again.
"""

from __future__ import annotations

from typing import Tuple

from repro.app.workload import uniform_workload
from repro.errors import SpecificationViolation
from repro.experiments.sweep import Row, Sweep, worst
from repro.network.topologies import grid_network, ring_network
from repro.sim.faults import RoutingFaultInjector
from repro.sim.runner import build_simulation, delivered_and_drained


def run_one(
    topology: str,
    pressure: Tuple[int, float],
    seed: int,
) -> Row:
    """One run of 16 messages faulted at ``pressure`` = (injection period,
    corruption fraction) for its first 500 steps, plus its fault-free twin;
    returns the cost row."""
    period, fraction = pressure

    def assemble():
        net = ring_network(8) if topology == "ring" else grid_network(3, 3)
        return build_simulation(
            net,
            workload=uniform_workload(net.n, 16, seed=seed, spread_steps=60),
            routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
            seed=seed,
        )

    # Fault-free twin (same initial corruption, no re-injection).
    baseline = assemble()
    baseline.run(2_000_000, halt=delivered_and_drained)

    faulted = assemble()
    injector = RoutingFaultInjector(
        faulted.routing, period=period, fraction=fraction,
        seed=seed, stop_after=500,
    )
    faulted.run(
        2_000_000, halt=delivered_and_drained, before_step=injector.before_step
    )
    if not faulted.ledger.all_valid_delivered():  # strict ledger anyway
        raise SpecificationViolation("a valid message was not delivered")

    return {
        "topology": topology,
        "period": period,
        "fraction": fraction,
        "injections": len(injector.injections),
        "delivered": faulted.ledger.valid_delivered_count,
        "violations": 0,
        "rounds_faulted": faulted.sim.round_count,
        "rounds_fault_free": baseline.sim.round_count,
        "slowdown": round(
            faulted.sim.round_count / max(baseline.sim.round_count, 1), 2
        ),
    }


SWEEP = Sweep(
    title="X4 - sustained routing faults: safety never breaks, the "
          "price is rounds (worst of seeds)",
    run_one=run_one,
    axes={
        "topology": ("ring", "grid"),
        "pressure": ((100, 0.3), (40, 0.6), (15, 1.0)),
    },
    seeds=(1, 2),
    fold=worst(lambda row: row["slowdown"]),
)
