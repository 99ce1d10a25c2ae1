"""Generic directed graphs over buffers.

A buffer is identified by a :class:`BufferId` — ``(processor, destination,
kind)`` where ``kind`` distinguishes reception/emission buffers in the
paper's construction ("single" for one-buffer schemes).  The class offers
the graph-theoretic queries the deadlock-freedom argument needs: acyclicity,
topological order and per-destination subgraphs.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import TopologyError
from repro.types import DestId, ProcId


@dataclass(frozen=True, order=True)
class BufferId:
    """Identity of one buffer: owner processor, target destination, kind.

    ``kind`` is one of ``"single"``, ``"R"`` (reception) or ``"E"``
    (emission).
    """

    proc: ProcId
    dest: DestId
    kind: str

    def __repr__(self) -> str:
        return f"buf{self.kind}_{self.proc}({self.dest})"


class BufferGraph:
    """A directed graph whose nodes are buffers.

    Edges are the *allowed message moves*: a message stored in buffer ``b``
    may only be copied into a buffer ``b'`` with ``(b, b') ∈ edges``.
    """

    def __init__(
        self,
        nodes: Iterable[BufferId],
        edges: Iterable[Tuple[BufferId, BufferId]],
    ) -> None:
        self._nodes: Tuple[BufferId, ...] = tuple(sorted(set(nodes)))
        node_set = set(self._nodes)
        succ: Dict[BufferId, List[BufferId]] = {b: [] for b in self._nodes}
        pred: Dict[BufferId, List[BufferId]] = {b: [] for b in self._nodes}
        edge_set: Set[Tuple[BufferId, BufferId]] = set()
        for u, v in edges:
            if u not in node_set or v not in node_set:
                raise TopologyError(f"edge ({u!r}, {v!r}) references unknown buffer")
            if u == v:
                raise TopologyError(f"self-loop on buffer {u!r}")
            if (u, v) in edge_set:
                continue
            edge_set.add((u, v))
            succ[u].append(v)
            pred[v].append(u)
        for lst in succ.values():
            lst.sort()
        for lst in pred.values():
            lst.sort()
        self._succ = succ
        self._pred = pred
        self._edges: Tuple[Tuple[BufferId, BufferId], ...] = tuple(sorted(edge_set))

    # -- accessors -----------------------------------------------------------

    @property
    def nodes(self) -> Tuple[BufferId, ...]:
        """All buffers, sorted."""
        return self._nodes

    @property
    def edges(self) -> Tuple[Tuple[BufferId, BufferId], ...]:
        """All allowed moves, sorted."""
        return self._edges

    def successors(self, b: BufferId) -> List[BufferId]:
        """Buffers a message in ``b`` may move to."""
        return self._succ[b]

    # -- structure -------------------------------------------------------------

    def is_acyclic(self) -> bool:
        """True iff the graph has no directed cycle (the Merlin-Schweitzer
        precondition for deadlock freedom)."""
        return self.topological_order() is not None

    def topological_order(self) -> Optional[List[BufferId]]:
        """A topological order of the buffers, or None if cyclic."""
        indeg = {b: len(self._pred[b]) for b in self._nodes}
        queue = deque(sorted(b for b, k in indeg.items() if k == 0))
        order: List[BufferId] = []
        while queue:
            b = queue.popleft()
            order.append(b)
            for s in self._succ[b]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    queue.append(s)
        return order if len(order) == len(self._nodes) else None

    def subgraph_for_destination(self, dest: DestId) -> "BufferGraph":
        """The component of the construction serving destination ``dest``."""
        nodes = [b for b in self._nodes if b.dest == dest]
        node_set = set(nodes)
        edges = [(u, v) for u, v in self._edges if u in node_set and v in node_set]
        return BufferGraph(nodes, edges)

    def __repr__(self) -> str:
        return f"BufferGraph(nodes={len(self._nodes)}, edges={len(self._edges)})"
