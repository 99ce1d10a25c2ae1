"""Experiment P5 — Proposition 5: a message needs O(max(R_A, Δ^D)) rounds
to be delivered once generated.

Two regimes are measured, matching the proof's two cases:

* **correct tables + contention** — a probe message crosses the network's
  diameter while every other processor floods the same destination (the
  ``choice`` fairness lets up to Δ messages "pass" the probe per hop, which
  is where the Δ^D term comes from).  Measured probe delivery rounds must
  stay at least D and within the Δ^D envelope.
* **corrupted tables** — the same probe emitted while the routing protocol
  is still repairing worst-case-corrupted tables; delivery then tracks the
  measured stabilization time R_A (plus the forwarding term).

The table reports, per topology: n, Δ, D, Δ^D, measured R_A, and the probe
latencies (in rounds) in both regimes, with the proposition's bound.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.app.workload import Workload
from repro.errors import SpecificationViolation
from repro.experiments.sweep import Row, Sweep, network_of, worst
from repro.network.graph import Network
from repro.network.properties import all_pairs_distances, diameter, max_degree
from repro.sim.metrics import RoundClock, delivery_latency_rounds
from repro.sim.runner import Simulation, build_simulation, delivered_and_drained


def _farthest_pair(net: Network) -> Tuple[int, int]:
    dist = all_pairs_distances(net)
    best = (0, 0)
    for u in net.processors():
        for v in net.processors():
            if dist[u][v] > dist[best[0]][best[1]]:
                best = (u, v)
    return best


def _probe_workload(net: Network) -> Tuple[Workload, int, int]:
    """A probe across the diameter plus hotspot contention on its
    destination (two messages from every other processor).  Returns (workload, source, dest); the probe and every
    contender are submitted at step 0, so the probe's uid is found via the
    ledger's generation info."""
    src, dest = _farthest_pair(net)
    subs = [(0, src, "probe", dest)]
    for p in net.processors():
        if p in (src, dest):
            continue
        for i in range(2):
            subs.append((0, p, f"bg{p}.{i}", dest))
    return Workload("probe+contention", subs), src, dest


def run_to_delivery(
    net: Network,
    workload: Workload,
    corrupted: bool,
    seed: int,
    probe: Optional[Callable[[Simulation], object]] = None,
) -> Tuple[Simulation, RoundClock, Row]:
    """Run ``workload`` to delivery in one of the proof's two regimes —
    correct tables, or worst-case corrupted ones plus 30 % garbage — with
    ``probe`` (if any) looking at every configuration.  Returns the
    simulation, its round clock and the columns every P5/P6 row shares;
    ``R_A_rounds`` is the empirical R_A: the first round at which the
    routing tables are correct, monitored every step."""
    sim = build_simulation(
        net,
        workload=workload,
        routing_corruption={"kind": "worst", "seed": seed} if corrupted else None,
        garbage={"fraction": 0.3, "seed": seed} if corrupted else None,
        seed=seed,
    )
    first_correct: Optional[int] = None

    def before_step(sim: Simulation) -> None:
        nonlocal first_correct
        if first_correct is None and sim.routing.is_correct():
            first_correct = sim.sim.round_count
        if probe is not None:
            probe(sim)

    sim.run(3_000_000, halt=delivered_and_drained, before_step=before_step)
    if not sim.ledger.all_valid_delivered():
        raise SpecificationViolation("a valid message was not delivered")
    delta = max_degree(net)
    diam = diameter(net)
    return sim, RoundClock(sim.sim.round_ends), {
        "delta": delta,
        "D": diam,
        "delta^D": delta ** diam,
        "tables": "corrupted" if corrupted else "correct",
        "R_A_rounds": first_correct if corrupted else 0,
    }


def with_bound(column: str, *measured: str) -> Callable[[List[Row]], List[Row]]:
    """A sweep's ``derive``: add the proposition's max(R_A, Δ^D) as
    ``column`` and whether every ``measured`` column stays within
    3·bound + 3·D rounds."""

    def derive(rows: List[Row]) -> List[Row]:
        for row in rows:
            bound = max(row["R_A_rounds"] or 0, row["delta^D"])
            row[column] = bound
            row["within"] = all(
                (row[name] or 0) <= 3 * bound + 3 * row["D"] for name in measured
            )
        return rows

    return derive


def run_one(topology: str, corrupted: bool, seed: int) -> Row:
    """One probe run; returns the measured row."""
    net = network_of(topology)
    workload, src, dest = _probe_workload(net)
    sim, clock, regime = run_to_delivery(net, workload, corrupted, seed)
    latencies = delivery_latency_rounds(sim.ledger, clock)
    uid = next(
        (
            uid
            for uid in sim.ledger.generated_uids()
            if sim.ledger.generation_info(uid)[:2] == (src, dest)
        ),
        None,
    )
    return {
        "topology": topology,
        "n": net.n,
        **regime,
        "probe_rounds": latencies.get(uid),
        "max_rounds": max(latencies.values()) if latencies else None,
    }


SWEEP = Sweep(
    title="P5 / Proposition 5 - probe delivery time (rounds) vs "
          "max(R_A, Delta^D), worst of seeds",
    run_one=run_one,
    axes={
        "topology": (
            "star(9)", "hypercube(3)", "grid(3x3)", "ring(10)", "line(8)",
            "lollipop(5,4)",
        ),
        "corrupted": (False, True),
    },
    seeds=(1, 2, 3),
    fold=worst(lambda row: row["probe_rounds"] or 0),
    derive=with_bound("bound_max(R_A,delta^D)", "probe_rounds"),
)
