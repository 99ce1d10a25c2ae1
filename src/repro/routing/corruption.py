"""Adversarial initial routing states.

The paper quantifies over *arbitrary* initial configurations.  These helpers
scramble a :class:`~repro.routing.selfstab_bfs.SelfStabilizingBFSRouting`
instance into domain-valid garbage (next hops are always neighbors,
distances always in range — the usual state-model convention).  All are
seeded and deterministic, and every entry goes through
:meth:`~repro.routing.selfstab_bfs.SelfStabilizingBFSRouting.set_entry`,
so a corruption mid-run is seen by the incremental engine entry by entry.
"""

from __future__ import annotations

import random

from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting


def corrupt_random(
    routing: SelfStabilizingBFSRouting,
    seed: int,
    fraction: float = 1.0,
) -> int:
    """Randomize a fraction of table entries; returns how many were hit.

    Every selected entry gets an independent uniformly random distance in
    ``{0..n-1}`` and a uniformly random *neighbor* as next hop (including
    entries at the destination itself — its locally-checkable rule will
    repair them first).
    """
    if not (0.0 <= fraction <= 1.0):
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rng = random.Random(seed)
    net = routing.network
    hit = 0
    for d in net.processors():
        for p in net.processors():
            if rng.random() >= fraction:
                continue
            dist = rng.randrange(net.n)
            routing.set_entry(d, p, dist, rng.choice(net.neighbors(p)))
            hit += 1
    return hit


def corrupt_worst_case(
    routing: SelfStabilizingBFSRouting, seed: int
) -> None:
    """Adversarial whole-table corruption: for every destination, point every
    processor *away* from the destination when possible (at its farthest
    neighbor), with minimal distances — maximizing both the repair work for
    ``A`` and the misrouting SSMFP must survive.
    """
    rng = random.Random(seed)
    net = routing.network
    for d in net.processors():
        td = routing._fixpoint[d][0]  # ground truth, adversary is omniscient
        for p in net.processors():
            neighbors = net.neighbors(p)
            worst = max(neighbors, key=lambda q: (td[q], q))
            routing.set_entry(d, p, rng.randrange(1, max(net.n, 2)), worst)
        # The destination's own entry is corrupted too.
        dist = rng.randrange(1, max(net.n, 2))
        routing.set_entry(d, d, dist, rng.choice(net.neighbors(d)))
