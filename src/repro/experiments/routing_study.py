"""Experiment X6 — the substrate study: measuring R_A.

Every bound in the paper is phrased against ``R_A``, the stabilization
time of the assumed routing algorithm.  This experiment characterizes our
concrete ``A`` (self-stabilizing BFS distance-vector): rounds to
silence-and-correctness from worst-case corruption, across topology
families, sizes and daemons.  The shape to observe: convergence is
polynomial — near-linear (~2n rounds) under this corruption model, with a
count-to-cap worst case up to O(n^2) when false-low distances are planted
deep (see ``tests/test_routing_selfstab.py``) — and the daemon changes
constants, not the shape.
"""

from __future__ import annotations

from repro.errors import InvariantViolation
from repro.experiments.sweep import Row, Sweep, worst
from repro.network.graph import Network
from repro.network.properties import diameter, max_degree
from repro.network.topologies import topology_by_name
from repro.routing.corruption import corrupt_worst_case
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.statemodel.daemon import DistributedRandomDaemon, SynchronousDaemon
from repro.statemodel.scheduler import Simulator


def _family_member(family: str, n: int) -> Network:
    """The member of ``family`` with (about) ``n`` processors."""
    if family == "grid":
        side = max(2, round(n ** 0.5))
        return topology_by_name("grid", side, side)
    if family == "random":
        return topology_by_name("random", n, n, seed=5)
    return topology_by_name(family, n)


def run_one(family: str, n: int, daemon_name: str, seed: int) -> Row:
    """Rounds (and steps) to silence from worst-case corruption."""
    net = _family_member(family, n)
    routing = SelfStabilizingBFSRouting(net)
    corrupt_worst_case(routing, seed=seed)
    daemon = (
        SynchronousDaemon()
        if daemon_name == "synchronous"
        else DistributedRandomDaemon(seed=seed)
    )
    sim = Simulator(net.n, routing, daemon)
    result = sim.run(max_steps=5_000_000)
    if not (result.terminal and routing.is_correct()):
        raise InvariantViolation("routing did not stabilize to correct tables")
    return {
        "family": family,
        "n": net.n,
        "delta": max_degree(net),
        "D": diameter(net),
        "daemon": daemon_name,
        "R_A_rounds": result.rounds,
        "steps": result.steps,
        "rounds_per_n": round(result.rounds / net.n, 2),
        "rounds_per_n2": round(result.rounds / net.n ** 2, 3),
    }


SWEEP = Sweep(
    title="X6 - the substrate's R_A: rounds to silence from worst-case "
          "corruption (worst of seeds)",
    run_one=run_one,
    axes={
        "family": ("line", "ring", "star", "grid", "random"),
        "n": (6, 12, 18),
        "daemon_name": ("synchronous", "distributed"),
    },
    seeds=(1, 2),
    fold=worst(lambda row: row["R_A_rounds"]),
)
