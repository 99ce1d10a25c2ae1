"""Graph properties used by the paper's analysis: Δ, D, dist(p, q).

All computations are exact BFS-based routines on :class:`~repro.network.Network`
instances.  They are used both by the routing substrate (ground truth for
table correctness) and by the experiment harness (the complexity bounds of
Propositions 5-7 are phrased in Δ, D and dist).
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import List, Tuple

from repro.network.graph import Network
from repro.types import ProcId

_UNREACHED = -1

#: Brute-force automorphism search is O(n!) — beyond this the search
#: falls back to the cyclic/dihedral candidate families (which cover the
#: symmetric topologies the zoo actually builds: rings, complete graphs).
_MAX_BRUTE_N = 8


def bfs_rows(net: Network, root: ProcId) -> Tuple[List[int], List[ProcId]]:
    """Distances to ``root`` and next hops toward it, from one BFS pass.

    Returns ``(dist, hop)`` with ``dist[p] == dist(root, p)`` and ``hop[p]``
    the neighbor of ``p`` on a shortest path toward ``root`` — the
    smallest-identity neighbor one level closer, the deterministic
    tie-break every routing provider shares — and ``hop[root] == root``.
    The network is connected by construction, so every distance is a finite
    non-negative integer.
    """
    dist = [_UNREACHED] * net.n
    hop = list(range(net.n))
    dist[root] = 0
    queue = deque([root])
    while queue:
        u = queue.popleft()
        dv = dist[u] + 1
        for v in net.neighbors(u):
            if dist[v] == _UNREACHED:
                dist[v] = dv
                hop[v] = u
                queue.append(v)
            elif dist[v] == dv and u < hop[v]:
                hop[v] = u
    return dist, hop


def bfs_distances(net: Network, source: ProcId) -> List[int]:
    """Shortest-path (hop) distances from ``source`` to every processor.

    Returns a list ``dist`` with ``dist[p] == dist(source, p)``.
    """
    return bfs_rows(net, source)[0]


def all_pairs_distances(net: Network) -> List[List[int]]:
    """Matrix of shortest-path distances; ``result[u][v] == dist(u, v)``."""
    return [bfs_distances(net, s) for s in net.processors()]


def eccentricity(net: Network, p: ProcId) -> int:
    """Greatest distance from ``p`` to any other processor."""
    return max(bfs_distances(net, p))


def diameter(net: Network) -> int:
    """The paper's ``D``: the maximum over all pairs of ``dist(p, q)``."""
    return max(eccentricity(net, p) for p in net.processors())


def max_degree(net: Network) -> int:
    """The paper's ``Δ``: the maximum processor degree."""
    return max(net.degree(p) for p in net.processors())


def _preserves_edges(net: Network, perm: Tuple[ProcId, ...]) -> bool:
    """True iff ``perm`` maps every edge onto an edge (and hence, being a
    bijection on a fixed edge count, is a graph automorphism)."""
    for u, v in net.edges:
        pu, pv = perm[u], perm[v]
        if not net.are_neighbors(pu, pv):
            return False
    return True


def automorphisms(net: Network) -> List[Tuple[ProcId, ...]]:
    """Graph automorphisms of ``net`` as identity-indexed tuples
    (``perm[p]`` is the image of processor ``p``).

    For ``n <= 8`` the search is exact (brute force over all permutations,
    pruned by the degree sequence).  Beyond that, exact search is
    infeasible and the function returns the *validated subset* of the
    cyclic/dihedral candidate families ``p -> (p + k) % n`` and
    ``p -> (k - p) % n`` — exactly the groups of the symmetric topologies
    the zoo builds by identity arithmetic (rings, complete graphs).  The
    identity permutation is always included, so the result is never empty
    and always forms a group (the symmetry-reduction layer re-validates
    each permutation against the protocol instance anyway; see
    ``repro/verify/reduction.py``).
    """
    n = net.n
    identity = tuple(range(n))
    if n <= 1:
        return [identity]
    found: List[Tuple[ProcId, ...]] = []
    if n <= _MAX_BRUTE_N:
        degrees = [net.degree(p) for p in range(n)]
        for perm in itertools.permutations(range(n)):
            if any(degrees[p] != degrees[perm[p]] for p in range(n)):
                continue
            if _preserves_edges(net, perm):
                found.append(perm)
        return found
    candidates = {identity}
    for k in range(n):
        candidates.add(tuple((p + k) % n for p in range(n)))
        candidates.add(tuple((k - p) % n for p in range(n)))
    for perm in sorted(candidates):
        if _preserves_edges(net, perm):
            found.append(perm)
    return found
