"""Analysis of routing states: correctness, cycles, stabilization time.

These helpers look at tables from the outside (ground truth available); the
protocols themselves never call them.
"""

from __future__ import annotations

from typing import List

from repro.network.graph import Network
from repro.network.properties import all_pairs_distances
from repro.routing.table import RoutingService
from repro.types import DestId, ProcId


def routing_errors(net: Network, routing: RoutingService) -> List[str]:
    """Human-readable list of table entries not on minimal paths.

    An entry ``nextHop_p(d) = q`` is correct when ``q`` is a neighbor of
    ``p`` with ``dist(q, d) == dist(p, d) - 1`` (the paper assumes ``A``
    induces minimal paths).  Empty list == correct tables.
    """
    true_dist = all_pairs_distances(net)
    problems: List[str] = []
    for d in net.processors():
        td = true_dist[d]
        for p in net.processors():
            if p == d:
                continue
            q = routing.next_hop(p, d)
            if q not in net.neighbors(p):
                problems.append(f"nextHop_{p}({d}) = {q} is not a neighbor of {p}")
            elif td[q] != td[p] - 1:
                problems.append(
                    f"nextHop_{p}({d}) = {q} not on a minimal path "
                    f"(dist({q},{d})={td[q]}, dist({p},{d})={td[p]})"
                )
    return problems


def next_hop_cycles(
    net: Network, routing: RoutingService, dest: DestId
) -> List[List[ProcId]]:
    """All directed cycles of the functional graph ``p -> nextHop_p(dest)``
    (excluding the destination's trivial self-entry).

    Corrupted tables typically contain such cycles — the situation Figure 3
    starts from; correct tables never do.
    """
    n = net.n
    color = [0] * n  # 0 unvisited, 1 on stack, 2 done
    cycles: List[List[ProcId]] = []
    for start in net.processors():
        if color[start] != 0 or start == dest:
            continue
        path: List[ProcId] = []
        p = start
        while True:
            if p == dest or color[p] == 2:
                break
            if color[p] == 1:
                # Found a cycle: the suffix of `path` starting at p.
                idx = path.index(p)
                cycles.append(path[idx:])
                break
            color[p] = 1
            path.append(p)
            p = routing.next_hop(p, dest)
        for q in path:
            color[q] = 2
    return cycles
