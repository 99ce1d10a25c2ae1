"""Experiment T2 — the cost of snap-stabilization.

The paper's conclusion claims snap-stabilization "without significant over
cost in space or in time with respect to the fault-free algorithm".  This
experiment quantifies the over-cost against the fault-free baseline in its
own best case — correct constant tables, atomic network moves:

* space: 2n buffers per processor (SSMFP) vs n (destination-based);
* time: steps, rounds, and forwarding moves per delivered message.

The expected shape: a small constant factor (~2-3x moves — each hop is a
copy + erase + commit instead of one move), not an asymptotic gap.
"""

from __future__ import annotations

from typing import List

from repro.app.workload import uniform_workload
from repro.experiments.sweep import Row, Sweep, network_of
from repro.sim.metrics import moves_per_delivery
from repro.sim.runner import (
    build_baseline_simulation,
    build_simulation,
    delivered_and_drained,
)

_MEASURES = ("delivered", "steps", "rounds", "moves_per_msg")


def run_one(topology: str, protocol: str, seed: int) -> Row:
    """One correct-tables run of ``"ssmfp"`` or the ``"ms-atomic"``
    baseline over 20 messages; returns the cost row."""
    net = network_of(topology)
    workload = uniform_workload(net.n, 20, seed=seed)
    if protocol == "ssmfp":
        sim = build_simulation(
            net, workload=workload, routing_mode="static", seed=seed
        )
        buffers = 2 * net.n * net.n
    else:
        sim = build_baseline_simulation(
            net, workload=workload, routing_mode="static", seed=seed,
        )
        buffers = net.n * net.n
    result = sim.run(500_000, halt=delivered_and_drained)
    delivered = sim.ledger.valid_delivered_count
    return {
        "topology": topology,
        "protocol": protocol,
        "delivered": delivered,
        "steps": result.steps,
        "rounds": result.rounds,
        "moves_per_msg": moves_per_delivery(result.rule_counts, delivered),
        "buffers_total": buffers,
    }


def _mean(runs: List[Row]) -> Row:
    """Mean over the seeds of one (topology, protocol)."""
    mean = dict(runs[0])
    for key in _MEASURES:
        mean[key] = sum(run[key] or 0 for run in runs) / len(runs)
    return mean


def _with_ratios(rows: List[Row]) -> List[Row]:
    """After each topology's (baseline, SSMFP) pair, their ratio."""
    out: List[Row] = []
    for ms, sf in zip(rows[::2], rows[1::2]):
        ratio: Row = {"topology": sf["topology"], "protocol": "ratio ssmfp/ms"}
        for key in ("steps", "rounds", "moves_per_msg"):
            ratio[key] = sf[key] / ms[key] if ms[key] else None
        ratio["buffers_total"] = sf["buffers_total"] / ms["buffers_total"]
        out += [ms, sf, ratio]
    return out


SWEEP = Sweep(
    title="T2 - over-cost of snap-stabilization vs the fault-free "
          "baseline (correct tables, mean of seeds)",
    run_one=run_one,
    axes={
        "topology": ("line(8)", "ring(8)", "star(8)", "grid(3x3)"),
        "protocol": ("ms-atomic", "ssmfp"),
    },
    seeds=(1, 2, 3),
    fold=_mean,
    derive=_with_ratios,
)
