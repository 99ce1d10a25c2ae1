"""Scripted routing tables for figure replays.

The paper's Figure-3 walkthrough leaves the routing algorithm ``A``
abstract: tables start corrupted, SSMFP executes several moves, and "the
routing tables are repaired during the next step".  A concrete
self-stabilizing ``A`` composed with priority would mask those SSMFP moves
(the corruption of the example is locally detectable, so ``A`` would be
enabled at the faulty processors from step 0).  :class:`ScriptedRouting`
stands in for ``A`` in replays: it serves corrupted entries until the
harness calls :meth:`repair_all` at exactly the step the figure repairs
them.  Every non-replay test and experiment uses the real
:class:`~repro.routing.selfstab_bfs.SelfStabilizingBFSRouting` instead.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.network.graph import Network
from repro.routing.static import StaticRouting
from repro.routing.table import RoutingService
from repro.types import DestId, ProcId


class ScriptedRouting(RoutingService):
    """Correct tables plus externally scripted overrides."""

    def __init__(self, net: Network) -> None:
        self._net = net
        self._static = StaticRouting(net)
        self._overrides: Dict[Tuple[ProcId, DestId], ProcId] = {}

    @property
    def network(self) -> Network:
        """The network the tables route."""
        return self._net

    def set_hop(self, p: ProcId, d: DestId, q: ProcId) -> None:
        """Corrupt one entry; ``q`` must be a neighbor of ``p``."""
        if q not in self._net.neighbors(p):
            raise ValueError(f"{q} is not a neighbor of {p}")
        self._overrides[(p, d)] = q
        self._notify_entry(p, d)

    def repair_all(self) -> None:
        """The figure's "routing tables are repaired" moment."""
        repaired = list(self._overrides)
        self._overrides.clear()
        for p, d in repaired:
            self._notify_entry(p, d)

    def next_hop(self, p: ProcId, d: DestId) -> ProcId:
        return self._overrides.get((p, d), self._static.next_hop(p, d))

    def is_correct(self) -> bool:
        return not self._overrides
