"""Experiment T1 — SSMFP vs the literature baseline under corruption.

The paper's motivation made measurable: the classical destination-based
scheme (Merlin-Schweitzer) is correct in its native network-move model with
correct tables, but

* its naive port to the shared-memory state model ("ms-split") duplicates
  and, under moving tables, loses messages — the (source, 2-value-flag)
  identity cannot sequence the copy/erase handshake; and
* even the atomic-move variant ("ms-atomic") gives no exactly-once
  guarantee argument from arbitrary initial configurations (invalid
  garbage occupies its only buffer per destination and must drain first).

SSMFP delivers every message exactly once in every regime — the ledger
records zero violations — at the cost of the second buffer and the
handshake moves.
"""

from __future__ import annotations

from typing import List

from repro.app.workload import uniform_workload
from repro.errors import SpecificationViolation
from repro.experiments.sweep import Row, Sweep
from repro.network.topologies import random_connected_network
from repro.sim.runner import (
    build_baseline_simulation,
    build_simulation,
    delivered_and_drained,
)

_SUMMED = (
    "generated", "delivered_once", "duplications", "losses", "undelivered",
    "violations",
)


def run_one(protocol: str, corrupted: bool, seed: int) -> Row:
    """One run of one protocol in one regime; returns the measured row.

    The run delivers 16 messages on a random 8-processor network."""
    net = random_connected_network(8, 4, seed=seed)
    workload = uniform_workload(net.n, 16, seed=seed)
    corruption = {"kind": "random", "fraction": 1.0, "seed": seed} if corrupted else None
    if protocol == "ssmfp":
        sim = build_simulation(
            net, workload=workload, routing_corruption=corruption,
            garbage={"fraction": 0.4, "seed": seed} if corrupted else None,
            ledger_strict=False, seed=seed,
        )
    else:
        sim = build_baseline_simulation(
            net, atomic_moves=(protocol == "ms-atomic"),
            workload=workload, routing_corruption=corruption, seed=seed,
        )
    result = sim.run(400_000, halt=delivered_and_drained, raise_on_limit=False)
    delivered = sim.ledger.valid_delivered_count
    outstanding = len(sim.ledger.outstanding_uids())
    duplications = sum("twice" in v for v in sim.ledger.violations)
    return {
        "protocol": protocol,
        "tables": "corrupted" if corrupted else "correct",
        "generated": sim.ledger.generated_count,
        "delivered_once": delivered,
        "duplications": duplications,
        "losses": sim.ledger.lost_count,
        "undelivered": outstanding,
        "violations": len(sim.ledger.violations),
        "finished": result.halted_by_predicate,
    }


def _totals(runs: List[Row]) -> Row:
    """Totals over the seeds of one (protocol, regime)."""
    total: Row = {"protocol": runs[0]["protocol"], "tables": runs[0]["tables"]}
    for key in _SUMMED:
        total[key] = sum(run[key] for run in runs)
    total["runs_finished"] = sum(int(run["finished"]) for run in runs)
    total["runs"] = len(runs)
    return total


def _checked(rows: List[Row]) -> List[Row]:
    if not all(
        r["violations"] == 0 and r["losses"] == 0
        for r in rows
        if r["protocol"] == "ssmfp"
    ):
        raise SpecificationViolation("SSMFP must never violate the specification")
    return rows


SWEEP = Sweep(
    title="T1 - exactly-once delivery: SSMFP vs the classical scheme "
          "(totals over seeds)",
    run_one=run_one,
    axes={
        "protocol": ("ssmfp", "ms-atomic", "ms-split"),
        "corrupted": (False, True),
    },
    seeds=(1, 2, 3, 4, 5),
    fold=_totals,
    derive=_checked,
)
