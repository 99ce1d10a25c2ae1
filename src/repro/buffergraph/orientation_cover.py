"""Acyclic-orientation buffer covers (§4's open problem, made executable).

The paper's conclusion points at the *other* Merlin-Schweitzer buffer
graph, built from an **acyclic orientation cover**: a sequence
``O_1, ..., O_s`` of acyclic orientations of the network such that every
ordered pair (u, v) admits a u->v walk whose edge directions follow the
orientations in sequence order (classes never decrease along the walk).
Each processor then needs only ``s`` buffers — one per class — instead of
one (or two) per destination: 3 suffice on a ring, 2 on a tree, while
computing the minimal ``s`` for general graphs is NP-hard (Kralovic &
Ruzicka, cited as [19]).

This module provides:

* :class:`Orientation` — a validated acyclic orientation of a network;
* :class:`OrientationCover` — a sequence of orientations with the
  coverage check (layered class-monotone reachability, exactly the
  buffer-graph semantics);
* constructors: :func:`tree_cover` (s = 2), :func:`ring_cover` (s = 3),
  :func:`cover_from_order` (the linear-order scheme: alternating
  up/down orientations, extended until every pair is covered), and
  :func:`greedy_cover` (seeded search over vertex orders — a heuristic,
  since the exact problem is NP-hard);
* :func:`orientation_cover_buffer_graph` — the resulting buffer graph
  (acyclic by construction: within a class the orientation is acyclic,
  across classes the index only grows).

Making *this* scheme snap-stabilizing is the paper's open problem; here it
is provided in its fault-free form so experiment X1 can quantify the
buffer savings the open problem is about.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.buffergraph.graph import BufferGraph, BufferId
from repro.errors import TopologyError
from repro.network.graph import Network
from repro.types import ProcId

DirectedEdge = Tuple[ProcId, ProcId]

#: Classes :func:`cover_from_order` adds before giving up on an order.
MAX_CLASSES = 32
#: Random vertex orders :func:`greedy_cover` tries beyond the fixed ones.
GREEDY_SHUFFLES = 16


class Orientation:
    """An acyclic orientation of a network's edges.

    ``directed`` must orient *every* edge of ``net`` exactly once; the
    induced digraph must be acyclic (checked eagerly).
    """

    def __init__(self, net: Network, directed: Sequence[DirectedEdge]) -> None:
        needed = set(net.edges)
        seen = set()
        succ: List[List[ProcId]] = [[] for _ in range(net.n)]
        for u, v in directed:
            key = (u, v) if u < v else (v, u)
            if key not in needed:
                raise TopologyError(f"({u}, {v}) is not an edge of the network")
            if key in seen:
                raise TopologyError(f"edge {key} oriented twice")
            seen.add(key)
            succ[u].append(v)
        if seen != needed:
            missing = sorted(needed - seen)
            raise TopologyError(f"edges left unoriented: {missing[:5]}")
        self._net = net
        self._succ = tuple(tuple(sorted(s)) for s in succ)
        self._arcs: FrozenSet[DirectedEdge] = frozenset(directed)
        if self._has_cycle():
            raise TopologyError("orientation is not acyclic")

    @property
    def network(self) -> Network:
        """The oriented network."""
        return self._net

    def successors(self, p: ProcId) -> Tuple[ProcId, ...]:
        """Out-neighbors of ``p`` under this orientation."""
        return self._succ[p]

    def allows(self, u: ProcId, v: ProcId) -> bool:
        """True iff the edge {u, v} is oriented u -> v."""
        return (u, v) in self._arcs

    def reversed(self) -> "Orientation":
        """The same edges, all flipped (also acyclic)."""
        return Orientation(self._net, [(v, u) for u, v in self._arcs])

    def _has_cycle(self) -> bool:
        indeg = [0] * self._net.n
        for p in range(self._net.n):
            for q in self._succ[p]:
                indeg[q] += 1
        queue = deque(p for p in range(self._net.n) if indeg[p] == 0)
        seen = 0
        while queue:
            p = queue.popleft()
            seen += 1
            for q in self._succ[p]:
                indeg[q] -= 1
                if indeg[q] == 0:
                    queue.append(q)
        return seen != self._net.n


class OrientationCover:
    """A sequence of acyclic orientations used as buffer classes."""

    def __init__(self, orientations: Sequence[Orientation]) -> None:
        if not orientations:
            raise TopologyError("a cover needs at least one orientation")
        nets = {o.network for o in orientations}
        if len(nets) != 1:
            raise TopologyError("all orientations must orient the same network")
        self._orientations = list(orientations)
        self._net = orientations[0].network

    @property
    def network(self) -> Network:
        """The covered network."""
        return self._net

    @property
    def size(self) -> int:
        """``s`` — buffers per processor under the scheme."""
        return len(self._orientations)

    @property
    def orientations(self) -> List[Orientation]:
        """The class orientations, in sequence order."""
        return list(self._orientations)

    def reachable_classes(self, u: ProcId) -> Dict[ProcId, int]:
        """For every processor v, the smallest class at which a
        class-monotone walk from (u, class 0) reaches v; absent if
        unreachable."""
        s = self.size
        best: Dict[ProcId, int] = {u: 0}
        # BFS over (processor, class) with monotone class moves.
        visited = [[False] * s for _ in range(self._net.n)]
        visited[u][0] = True
        queue = deque([(u, 0)])
        while queue:
            p, c = queue.popleft()
            if p not in best or c < best[p]:
                best[p] = min(best.get(p, c), c)
            # Move along the current class.
            for q in self._orientations[c].successors(p):
                if not visited[q][c]:
                    visited[q][c] = True
                    queue.append((q, c))
            # Climb (possibly without moving).
            if c + 1 < s and not visited[p][c + 1]:
                visited[p][c + 1] = True
                queue.append((p, c + 1))
        return best

    def covers_path(self, path: Sequence[ProcId]) -> bool:
        """True iff this *specific* walk is class-monotone coverable.

        Greedy smallest-feasible-class assignment is optimal for a fixed
        path: each edge takes the least class >= the current one whose
        orientation allows it.
        """
        c = 0
        for u, v in zip(path, path[1:]):
            while c < self.size and not self._orientations[c].allows(u, v):
                c += 1
            if c == self.size:
                return False
        return True

    def is_valid(self) -> bool:
        """True iff every ordered pair is covered by *some* walk."""
        for u in self._net.processors():
            reach = self.reachable_classes(u)
            if len(reach) != self._net.n:
                return False
        return True

    def is_valid_for_routing(self, routing) -> bool:
        """True iff every routing path (following ``next_hop`` from every
        source to every destination) is class-monotone coverable — the
        property the forwarding scheme actually needs."""
        return not self.uncovered_routing_pairs(routing)

    def uncovered_routing_pairs(self, routing) -> List[Tuple[ProcId, ProcId]]:
        """Ordered pairs whose routing path the cover cannot carry."""
        missing: List[Tuple[ProcId, ProcId]] = []
        for d in self._net.processors():
            for u in self._net.processors():
                if u == d:
                    continue
                path = routing_path(self._net, routing, u, d)
                if path is None or not self.covers_path(path):
                    missing.append((u, d))
        return missing


# -- constructors ------------------------------------------------------------


def routing_path(
    net: Network, routing, u: ProcId, d: ProcId
) -> Optional[List[ProcId]]:
    """The walk u -> d obtained by following ``next_hop``; None if it does
    not reach d within ``n`` hops (cyclic tables)."""
    path = [u]
    p = u
    for _ in range(net.n):
        if p == d:
            return path
        p = routing.next_hop(p, d)
        path.append(p)
    return path if p == d else None


def _orient_by_order(net: Network, rank: Sequence[int], up: bool) -> Orientation:
    arcs = []
    for u, v in net.edges:
        if (rank[u] < rank[v]) == up:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    return Orientation(net, arcs)


def cover_from_order(
    net: Network,
    order: Sequence[ProcId],
    routing=None,
) -> OrientationCover:
    """The linear-order scheme: alternate the up-orientation and the
    down-orientation induced by ``order``, adding classes until valid.

    With ``routing`` given, validity means every routing path is covered
    (what the forwarding scheme needs — a ring then costs 3 classes);
    without, it means plain reachability coverage.  Always succeeds for
    connected graphs within :data:`MAX_CLASSES` classes (a path of length L
    alternates direction at most L times); the resulting size depends
    heavily on the order — :func:`greedy_cover` searches over orders.
    """
    if sorted(order) != list(net.processors()):
        raise TopologyError("order must be a permutation of the processors")
    rank = [0] * net.n
    for i, p in enumerate(order):
        rank[p] = i
    up = _orient_by_order(net, rank, up=True)
    down = _orient_by_order(net, rank, up=False)
    orientations: List[Orientation] = []
    for i in range(MAX_CLASSES):
        orientations.append(up if i % 2 == 0 else down)
        cover = OrientationCover(orientations)
        valid = (
            cover.is_valid_for_routing(routing)
            if routing is not None
            else cover.is_valid()
        )
        if valid:
            return cover
    raise TopologyError(
        f"no valid cover within {MAX_CLASSES} classes for this order"
    )


def tree_cover(net: Network) -> OrientationCover:
    """s = 2 for trees: orient toward the root 0, then away from it.

    Any tree path climbs toward the root then descends — one up-segment,
    one down-segment.
    """
    if net.m != net.n - 1:
        raise TopologyError("tree_cover needs a tree (m == n - 1)")
    from repro.network.properties import bfs_distances

    depth = bfs_distances(net, 0)
    arcs = []
    for u, v in net.edges:
        # Orient toward the root: deeper endpoint -> shallower endpoint.
        if depth[u] > depth[v]:
            arcs.append((u, v))
        else:
            arcs.append((v, u))
    up = Orientation(net, arcs)
    return OrientationCover([up, up.reversed()])


def ring_cover(net: Network, routing=None) -> OrientationCover:
    """The literature's 3-buffer ring construction.

    Ranks form a *mountain* around the cycle — ascending for half the
    ring, descending for the other half — so peak and valley are
    (near-)antipodal and every shortest arc crosses at most one of them,
    i.e. alternates direction at most once.  The cover [up, down, up]
    (size 3) then carries every shortest-path route; 2 classes cannot
    (arcs crossing the valley start downhill, arcs crossing the peak
    start uphill — no 2-class sequence serves both).
    """
    n = net.n
    if net.m != n or any(net.degree(p) != 2 for p in net.processors()):
        raise TopologyError("ring_cover needs a cycle graph")
    if routing is None:
        from repro.routing.static import StaticRouting

        routing = StaticRouting(net)
    # Walk the cycle once to get the circular sequence of processors.
    cycle = [0, net.neighbors(0)[0]]
    while len(cycle) < n:
        prev, cur = cycle[-2], cycle[-1]
        nxt = [q for q in net.neighbors(cur) if q != prev][0]
        cycle.append(nxt)
    half = n // 2
    rank = [0] * n
    for pos, p in enumerate(cycle):
        rank[p] = 2 * pos if pos <= half else 2 * (n - pos) - 1
    order = sorted(net.processors(), key=lambda p: rank[p])
    return cover_from_order(net, order, routing=routing)


def greedy_cover(net: Network, seed: int = 0, routing=None) -> OrientationCover:
    """Heuristic minimal cover: try several seeded vertex orders (identity,
    BFS orders from a few roots, random shuffles) and keep the smallest
    cover found.  The exact minimum is NP-hard [19]; this is the
    best-effort the open problem allows.  Pass ``routing`` to require
    coverage of the routing function's actual paths.
    """
    import random

    from repro.network.properties import bfs_distances

    rng = random.Random(seed)
    candidates: List[List[ProcId]] = [list(net.processors())]
    for root in list(net.processors())[: min(4, net.n)]:
        dist = bfs_distances(net, root)
        candidates.append(sorted(net.processors(), key=lambda p: (dist[p], p)))
    for _ in range(GREEDY_SHUFFLES):
        order = list(net.processors())
        rng.shuffle(order)
        candidates.append(order)
    best: Optional[OrientationCover] = None
    for order in candidates:
        try:
            cover = cover_from_order(net, order, routing=routing)
        except TopologyError:
            continue
        if best is None or cover.size < best.size:
            best = cover
    if best is None:
        raise TopologyError("no valid cover found (should not happen on connected graphs)")
    return best


def orientation_cover_buffer_graph(cover: OrientationCover) -> BufferGraph:
    """The buffer graph of the scheme: ``s`` buffers per processor
    (``BufferId(p, class_index, "class")``); moves follow the class
    orientation, climb to the next class (with or without moving), and
    the whole graph is acyclic by construction.
    """
    net = cover.network
    s = cover.size
    nodes = [
        BufferId(p, c, "class") for p in net.processors() for c in range(s)
    ]
    edges: List[Tuple[BufferId, BufferId]] = []
    for c, orientation in enumerate(cover.orientations):
        for p in net.processors():
            for q in orientation.successors(p):
                edges.append((BufferId(p, c, "class"), BufferId(q, c, "class")))
            if c + 1 < s:
                edges.append((BufferId(p, c, "class"), BufferId(p, c + 1, "class")))
    return BufferGraph(nodes, edges)
