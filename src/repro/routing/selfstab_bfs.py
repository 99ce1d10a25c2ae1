"""A self-stabilizing silent routing protocol (the paper's algorithm ``A``).

The paper assumes the existence of a self-stabilizing silent algorithm
computing routing tables along minimal paths (citing Huang-Chen and Dolev).
This module implements the classic per-destination BFS distance-vector
protocol in the state model:

Variables (per processor ``p``, destination ``d``):
    ``dist_p(d) ∈ {0..n-1}`` and ``hop_p(d) ∈ N_p ∪ {p}``.

Rules:
    * ``RTself`` (at ``p == d``): if ``dist != 0`` or ``hop != p``, set
      ``dist := 0, hop := p``.  Purely local; once executed it is never
      enabled again — the destination's own entry is *monotonically*
      correct, which the forwarding safety argument relies on.
    * ``RTfix`` (at ``p != d``): with ``best = min_{q∈N_p} dist_q(d)`` and
      ``bh`` the smallest-identity neighbor attaining it, if
      ``dist_p(d) != min(best+1, n-1)`` or ``hop_p(d) != bh``, adopt both.

Under any weakly fair daemon the protocol converges in O(n) rounds to the
exact BFS distances with smallest-identity parent tie-break (the same
fixpoint :class:`~repro.routing.static.StaticRouting` computes), after which
no rule is enabled (*silent*).  ``next_hop`` always returns a domain-valid
value, even from corrupted states.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.network.graph import Network
from repro.network.properties import bfs_rows
from repro.routing.lazyrows import LazyRows
from repro.routing.table import RoutingService
from repro.statemodel.action import Action
from repro.statemodel.components import ComponentDirtyCache
from repro.statemodel.protocol import Protocol
from repro.statemodel.snapshot import StateVector
from repro.types import DestId, ProcId


class SelfStabilizingBFSRouting(Protocol, RoutingService):
    """Self-stabilizing BFS routing tables for every destination.

    The instance starts *converged* (correct tables); use the functions in
    :mod:`repro.routing.corruption` to scramble it into an adversarial
    initial configuration.  Every entry write — RTself, RTfix, a restore,
    a corruption, a fault — goes through :meth:`set_entry`, which keeps
    the journal and both dirty channels exact; the rows are never written
    directly.

    Like SSMFP, the protocol is ``n`` mutually independent per-destination
    algorithms: RTself/RTfix at ``(p, d)`` read only ``dist(d)`` entries in
    ``p``'s closed neighborhood.  It therefore keeps the same per-component
    action cache (:mod:`repro.statemodel.components`): a table write at
    ``p`` for destination ``d`` dirties only component ``d`` in ``N_p ∪
    {p}`` instead of forcing all ``n`` destinations of those processors to
    re-evaluate — and an executed repair only ``N_p``: its own guard is
    false after it (:meth:`_repair`).
    """

    name = "A"
    tracks_components = True

    def __init__(self, net: Network) -> None:
        self._net = net
        n = net.n
        self._cap = max(n - 1, 1)
        # dist[d][p], hop[d][p]; logically initialized at the correct
        # fixpoint, but *lazily*: a row materializes (at the fixpoint, one
        # BFS) only when first read or written, and an absent row reads as
        # converged — O(live destinations × n) memory instead of O(n²).
        #: ``_fixpoint[d]`` — the converged ``(dist row, hop row)`` for
        #: ``d``, both from one BFS; ground truth, never written.
        self._fixpoint = LazyRows(lambda d: bfs_rows(net, d))
        self.dist: LazyRows = LazyRows(self._fixpoint_dist_row)
        self.hop: LazyRows = LazyRows(self._fixpoint_hop_row)
        # Incremental-engine bookkeeping, marked from construction on: a
        # corruption before the first step dirties what it writes like any
        # later fault.
        self._components = ComponentDirtyCache()
        #: Closed neighborhood of every processor, precomputed.
        self._nbhd = [(p, *net.neighbors(p)) for p in net.processors()]
        #: Snapshot anchor (``statemodel/snapshot.py``): the vector last
        #: restored to and ``{(d, p): (dist, hop) at the anchor}`` for every
        #: entry :meth:`set_entry` has touched since; armed by the first
        #: :meth:`restore`.
        self._anchor: Optional[StateVector] = None
        self._journal: Optional[Dict[Tuple[DestId, ProcId],
                                     Tuple[int, ProcId]]] = None

    def _fixpoint_dist_row(self, d: DestId) -> List[int]:
        """A fresh copy of the converged distance row for ``d``."""
        return list(self._fixpoint[d][0])

    def _fixpoint_hop_row(self, d: DestId) -> List[ProcId]:
        """A fresh copy of the converged hop row for ``d`` (smallest-id
        parent tie-break)."""
        return list(self._fixpoint[d][1])

    def _touched_destinations(self) -> Set[DestId]:
        """Destinations with any materialized table row — the only ones
        that can deviate from the fixpoint (a write materializes)."""
        return self.dist.rows.keys() | self.hop.rows.keys()

    def _deviates(self, d: DestId) -> bool:
        """True iff some entry for ``d`` differs from the fixpoint."""
        fix_dist, fix_hop = self._fixpoint[d]
        return self.dist[d] != fix_dist or self.hop[d] != fix_hop

    # -- incremental-engine hooks -------------------------------------------

    def _mark_dirty(self, p: ProcId, d: DestId) -> None:
        """RTfix at ``q`` for destination ``d`` reads ``dist_r(d)`` of every
        neighbor ``r``, so a write at ``(p, d)`` dirties component ``d`` in
        the closed neighborhood of ``p`` — and nothing else."""
        self._components.mark_many(self._nbhd[p], d)

    def dirty_after(self, selection) -> Optional[Set[ProcId]]:
        # Processor projection of the component dirt; reconciled lazily in
        # :meth:`enabled_actions` (see SSMFP for the masking argument).
        return set(self._components.dirty)

    # -- RoutingService ------------------------------------------------------

    @property
    def network(self) -> Network:
        """The network the protocol runs on."""
        return self._net

    def next_hop(self, p: ProcId, d: DestId) -> ProcId:
        # A read never materializes: an absent row is the fixpoint, and
        # only written rows are "touched" (examined by a rebuild).
        row = self.hop.rows.get(d)
        if row is None:
            row = self._fixpoint[d][1]
        return row[p]

    def is_correct(self) -> bool:
        """True iff every entry equals the converged fixpoint (correct
        distance, smallest-id closer neighbor).  Only materialized rows are
        examined: an absent row *is* the fixpoint by construction."""
        return not any(map(self._deviates, self._touched_destinations()))

    # -- Protocol --------------------------------------------------------------

    def _target(self, p: ProcId, dist: List[int]) -> Tuple[int, ProcId]:
        """The (dist, hop) pair RTfix would adopt at ``p`` over ``dist``."""
        best = self._cap
        bh = p
        for q in self._net.neighbors(p):
            dq = dist[q]
            if dq < best:
                best = dq
                bh = q
        # With best == cap no neighbor improves; keep a domain-valid hop
        # (smallest neighbor) so next_hop never leaves N_p.
        if bh == p:
            bh = self._net.neighbors(p)[0]
        return min(best + 1, self._cap), bh

    def _eval_component(self, pid: ProcId, d: DestId) -> List[Action]:
        """RTself/RTfix at the single component ``(pid, d)``."""
        if d not in self.dist.rows and d not in self.hop.rows:
            # Unmaterialized row ≡ converged fixpoint: silent, no rule
            # enabled — and evaluating it must not materialize anything.
            return []
        dist, hop = self.dist[d], self.hop[d]
        if pid == d:
            if dist[pid] != 0 or hop[pid] != pid:
                return [Action(pid, "RTself", self.name, d, self._reset_self, (d, pid))]
            return []
        new_dist, new_hop = self._target(pid, dist)
        if dist[pid] != new_dist or hop[pid] != new_hop:
            return [Action(pid, "RTfix", self.name, d, self._repair,
                           (d, pid, new_dist, new_hop))]
        return []

    def _active_sorted(self, pid: ProcId) -> List[DestId]:
        """The destination components a rebuild examines, ascending (as
        the dense scan examined them) and the same at every processor: the
        materialized rows — an unmaterialized row is at the fixpoint and
        silent by construction."""
        return sorted(self._touched_destinations())

    @property
    def component_evals(self) -> int:
        """Component evaluations so far, rebuilds and reconciles alike."""
        return self._components.evals

    def enabled_actions(self, pid: ProcId) -> List[Action]:
        return self._components.enabled_actions(
            pid, self._eval_component, self._active_sorted
        )

    def silent_at(self, pid: ProcId) -> bool:
        """True, counting ``pid`` as polled, while there is no dirt, no
        served entry and no row — the set a rebuild examines."""
        cache = self._components
        if cache.dirty or cache.served or self.dist.rows or self.hop.rows:
            return False
        cache.valid.add(pid)
        return True

    def _reset_self(self, d: DestId, p: ProcId) -> None:
        """RTself: the destination is at distance 0 of itself."""
        self._repair(d, p, 0, p)

    def _repair(self, d: DestId, p: ProcId, new_dist: int, new_hop: ProcId) -> None:
        """An executed RTfix or RTself: :meth:`set_entry`, after which the
        repair's guard at ``(p, d)`` is false — besides the entry just set
        it reads only the neighbors' ``dist(d)``, and a neighbor whose
        entry moves in the same step marks ``(p, d)`` by its own write.
        So unless something marked ``(p, d)`` already, the component
        retires unevaluated: only the neighbors stay marked, and ``p`` is
        served again without the entry."""
        cache = self._components
        marked = d in cache.dirty.get(p, ())
        self.set_entry(d, p, new_dist, new_hop)
        if not marked:
            cache.retire(p, d)

    # What an RTfix ``Action.info`` reports beyond ``dest``.
    _repair.describe = lambda d, p, dist, hop: {"dist": dist, "hop": hop}

    def set_entry(self, d: DestId, p: ProcId, new_dist: int, new_hop: ProcId) -> None:
        """Write ``dist_p(d)`` and ``hop_p(d)`` — RTfix's effect, every
        restore's, and every corruption's — feeding both dirty channels:
        this protocol's own guards and, when the hop actually moved, the
        observers reading ``next_hop``.  Neighbors' guards read ``dist``,
        never ``hop``: a write that leaves ``dist_p(d)`` as it was marks
        ``(p, d)`` alone, the closed neighborhood otherwise."""
        dist_row, hop_row = self.dist[d], self.hop[d]
        if self._journal is not None:
            self._journal.setdefault((d, p), (dist_row[p], hop_row[p]))
        hop_changed = hop_row[p] != new_hop
        if dist_row[p] == new_dist:
            self._components.mark(p, d)
        else:
            dist_row[p] = new_dist
            self._mark_dirty(p, d)
        hop_row[p] = new_hop
        if hop_changed:
            self._notify_entry(p, d)

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> StateVector:
        """Sparse canonical state vector: one ``(d, dist_row, hop_row)``
        entry per destination whose row deviates from the converged
        fixpoint, ascending.  Canonical: a materialized-but-converged row
        serializes identically to an absent one, so two differently
        materialized instances of the same logical table produce the same
        vector.  (The dirty bookkeeping is derived state, not captured.)
        With no entry written since the last :meth:`restore` the anchor
        itself comes back."""
        if self._anchor is not None and not self._journal:
            return self._anchor
        entries = []
        for d in sorted(self._touched_destinations()):
            if self._deviates(d):
                entries.append((d, tuple(self.dist[d]), tuple(self.hop[d])))
        return tuple(entries)

    def restore(self, vec: StateVector) -> None:
        """Diff-restore through :meth:`set_entry`, so both dirty channels —
        this protocol's own guards and the ``next_hop`` observers — see
        exactly the entries that changed.  Rows absent from the vector go
        back to the fixpoint and are then evicted (quiescence: a converged
        row costs no memory again).  Handed its anchor, only the journaled
        entries are visited; any other vector is diffed row by row and
        becomes the anchor."""
        journal = self._journal
        if vec is self._anchor:
            for (d, p), (dist, hop) in list(journal.items()):
                if self.dist[d][p] != dist or self.hop[d][p] != hop:
                    self.set_entry(d, p, dist, hop)
            for d in {d for d, _ in journal}.difference(d for d, _, _ in vec):
                self.dist.evict(d)
                self.hop.evict(d)
            journal.clear()
            return
        target = {d: (dist_row, hop_row) for d, dist_row, hop_row in vec}
        n = self._net.n
        for d in sorted(self._touched_destinations() - set(target)):
            fix_dist, fix_hop = self._fixpoint[d]
            dist_row, hop_row = self.dist[d], self.hop[d]
            for p in range(n):
                if dist_row[p] != fix_dist[p] or hop_row[p] != fix_hop[p]:
                    self.set_entry(d, p, fix_dist[p], fix_hop[p])
            self.dist.evict(d)
            self.hop.evict(d)
        for d in sorted(target):
            new_dist, new_hop = target[d]
            dist_row, hop_row = self.dist[d], self.hop[d]
            for p in range(n):
                if dist_row[p] != new_dist[p] or hop_row[p] != new_hop[p]:
                    self.set_entry(d, p, new_dist[p], new_hop[p])
        self._anchor = vec
        if journal is None:
            self._journal = {}
        else:
            journal.clear()
