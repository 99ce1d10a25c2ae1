"""Experiment X2 — the §4 future work: a faster fair selection scheme.

The paper notes that the Δ^D worst case of Proposition 5 comes entirely
from the number of messages allowed to *pass* a given message at each hop,
and suggests keeping the protocol but changing ``choice_p(d)``.  This
experiment implements that suggestion: the ``"aged"`` policy serves the
requester whose waiting message has traveled farthest (its hop count — a
log(TTL)-bit extension of the flag), so fresh traffic can no longer
repeatedly overtake an old message.

Measured: worst-case probe latency (rounds) across the diameter of a line
under hotspot contention injected *close to the destination* (the fresh
traffic that FIFO lets pass), FIFO vs aged vs aged_fair.  Exactly-once
delivery is re-checked under each policy (strict ledger) — the
modification keeps safety, as the paper anticipates.

Two findings beyond the paper (both from the exhaustive liveness checker,
``tests/test_liveness.py``): the plain aged policy *starves generation
requests* under persistent pressure (a fresh request has the lowest age),
and the constructive fix — ``aged_fair``, which also ages requests by
waiting time — restores exhaustive starvation-freedom at the same
measured speed.
"""

from __future__ import annotations

from itertools import groupby
from typing import List

from repro.app.workload import Workload
from repro.errors import SpecificationViolation
from repro.experiments.sweep import Row, Sweep, worst
from repro.network.topologies import line_network
from repro.sim.metrics import RoundClock, delivery_latency_rounds
from repro.sim.runner import build_simulation, delivered_and_drained


def _contended_probe_workload(n: int, per_source: int) -> Workload:
    """Probe 0 -> n-1 plus `per_source` messages from every intermediate
    processor to the same destination (all competing in one component)."""
    dest = n - 1
    subs = [(0, 0, "probe", dest)]
    for p in range(1, n - 1):
        for i in range(per_source):
            subs.append((0, p, f"bg{p}.{i}", dest))
    return Workload("near-dest contention", subs)


def run_one(policy: str, n: int, per_source: int, seed: int) -> Row:
    """One probe run under the given choice policy."""
    net = line_network(n)
    sim = build_simulation(
        net,
        workload=_contended_probe_workload(n, per_source),
        routing_mode="static",
        seed=seed,
        protocol_options={"choice_policy": policy},
    )
    sim.run(2_000_000, halt=delivered_and_drained)
    if not sim.ledger.all_valid_delivered():
        raise SpecificationViolation("a valid message was not delivered")
    clock = RoundClock(sim.sim.round_ends)
    latencies = delivery_latency_rounds(sim.ledger, clock)
    probe_uid = next(
        uid
        for uid in sim.ledger.generated_uids()
        if sim.ledger.generation_info(uid)[0] == 0
    )
    return {
        "policy": policy,
        "n": n,
        "per_source": per_source,
        "probe_rounds": latencies[probe_uid],
        "max_rounds": max(latencies.values()),
        "mean_rounds": sum(latencies.values()) / len(latencies),
    }


def _with_speedups(rows: List[Row]) -> List[Row]:
    """After each configuration's per-policy rows, FIFO's probe latency
    over each other policy's."""
    out: List[Row] = []
    for (n, per_source), group in groupby(
        rows, key=lambda row: (row["n"], row["per_source"])
    ):
        policies = list(group)
        out += policies
        fifo = next(row for row in policies if row["policy"] == "fifo")
        for row in policies:
            if row is not fifo:
                out.append(
                    {
                        "policy": f"speedup fifo/{row['policy']}",
                        "n": n,
                        "per_source": per_source,
                        "probe_rounds": round(
                            fifo["probe_rounds"] / max(row["probe_rounds"], 1), 2
                        ),
                    }
                )
    return out


SWEEP = Sweep(
    title="X2 - future work: age-priority choice vs the paper's FIFO "
          "(probe latency under near-destination contention, worst of seeds)",
    run_one=run_one,
    axes={
        "n": (8, 12),
        "per_source": (2, 4),
        "policy": ("fifo", "aged", "aged_fair"),
    },
    seeds=(1, 2, 3),
    fold=worst(lambda row: row["probe_rounds"]),
    derive=_with_speedups,
)
