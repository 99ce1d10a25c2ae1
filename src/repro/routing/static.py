"""Correct, constant routing tables (the ``R_A = 0`` regime).

:class:`StaticRouting` computes, once, for every destination ``d``, the BFS
tree ``T_d`` with deterministic smallest-identity tie-breaking — the same
trees the self-stabilizing protocol converges to — and serves ``nextHop``
from it.  Used for the Proposition-1 experiments (routing correct from the
initial configuration) and as the ground truth the analysis module compares
live tables against.
"""

from __future__ import annotations

from typing import List

from repro.network.graph import Network
from repro.network.properties import bfs_rows
from repro.routing.lazyrows import LazyRows
from repro.routing.table import RoutingService
from repro.types import DestId, ProcId


class StaticRouting(RoutingService):
    """Immutable correct tables for a network.

    ``next_hop(p, d)`` is the parent of ``p`` in the BFS tree rooted at
    ``d`` (smallest-id tie-break), i.e. a neighbor of ``p`` strictly closer
    to ``d``; ``next_hop(d, d) == d``.

    Rows are computed lazily, one BFS per destination on first lookup, and
    cached: a node that only ever routes toward a handful of destinations
    pays O(live destinations × n) memory, not O(n²) up front.  The result
    is identical to the eager table — the trees are deterministic.
    """

    def __init__(self, net: Network) -> None:
        self._net = net
        # _hop[d][p] = parent of p in T_d, materialized per destination.
        self._hop = LazyRows(self._tree_row)

    def _tree_row(self, d: DestId) -> List[ProcId]:
        return bfs_rows(self._net, d)[1]

    @property
    def network(self) -> Network:
        """The network the tables were computed for."""
        return self._net

    def __deepcopy__(self, memo) -> "StaticRouting":
        # Static tables are immutable; share across deep copies.
        return self

    def snapshot(self) -> tuple:
        """State vector: empty — static tables never change, so snapshot/
        restore of this provider is vacuous (the verifier's contract is
        satisfied without storing the tables per state)."""
        return ()

    def restore(self, vec: tuple) -> None:
        """No-op: immutable tables are always 'restored'."""

    def next_hop(self, p: ProcId, d: DestId) -> ProcId:
        return self._hop[d][p]

    def is_correct(self) -> bool:
        return True
