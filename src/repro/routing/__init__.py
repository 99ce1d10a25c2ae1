"""Routing substrate.

The paper assumes a self-stabilizing *silent* routing algorithm ``A`` runs
simultaneously with SSMFP, with priority, and that SSMFP reads the tables
only through ``nextHop_p(d)``.  This package provides:

* :class:`RoutingService` — the ``nextHop`` interface SSMFP consumes;
* :class:`StaticRouting` — fixed correct tables (``R_A = 0``), for the
  Proposition-1 regime;
* :class:`SelfStabilizingBFSRouting` — a per-destination self-stabilizing
  BFS distance-vector protocol in the state model (silent, converges in
  O(D) rounds under a weakly fair daemon, minimal paths);
* corruption models producing the arbitrary initial table states the paper
  quantifies over;
* analysis helpers: table correctness, routing-cycle detection, and
  measurement of the stabilization time ``R_A``.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "table": "RoutingService",
    "static": "StaticRouting",
    "selfstab_bfs": "SelfStabilizingBFSRouting",
    "corruption": "corrupt_random corrupt_worst_case",
    "analysis": "next_hop_cycles routing_errors",
})

__all__ = [
    "RoutingService",
    "StaticRouting",
    "SelfStabilizingBFSRouting",
    "corrupt_random",
    "corrupt_worst_case",
    "next_hop_cycles",
    "routing_errors",
]
