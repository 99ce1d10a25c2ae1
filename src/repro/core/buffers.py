"""Reception/emission buffer storage for SSMFP.

Per destination ``d`` every processor owns a reception buffer ``bufR_p(d)``
and an emission buffer ``bufE_p(d)`` (the paper's two-buffers-per-
destination scheme, Figure 2).  Storage is **sparse and lazily
materialized**: a buffer cell exists in memory only while it holds a
message, and a destination row exists only while at least one of its cells
does.  This is sound because an absent cell is semantically identical to a
clean empty buffer — the exact invariant snap-stabilization already relies
on (an arbitrary initial configuration may start with every buffer empty),
so eviction-on-empty and re-materialization-as-empty are unobservable to
the protocol.  Every reader goes through :meth:`~ForwardingBuffers.get_r`
/ :meth:`~ForwardingBuffers.get_e` (one cell, ``None`` when empty) or
:meth:`~ForwardingBuffers.rows` (the occupied cells of one component).
Memory is O(live messages), not O(n²).

Every mutation goes through :meth:`set_r` / :meth:`set_e` /
:meth:`move_r_to_e`, so an optional *write notifier* installed with
:meth:`bind_notifier` sees every buffer write ``(d, p, kind)`` — the hook
the incremental engine uses to maintain its dirty sets — and, once the
first :meth:`restore` has armed it, a *journal* remembers what every
written cell held at the anchor (``statemodel/snapshot.py``), so going
back costs what was written.  The one silent write is :meth:`undo`, the
quiet return to the anchor.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.statemodel.message import Message
from repro.statemodel.snapshot import StateVector
from repro.types import DestId, ProcId

#: Write-notification callback: ``(dest, processor, kind)`` with kind in
#: {"R", "E"} ("E" also covers R2's simultaneous R-empty/E-fill write).
WriteNotifier = Callable[[DestId, ProcId, str], None]

#: Sparse storage: ``{dest: {proc: message}}`` with empty rows evicted.
_Plane = Dict[DestId, Dict[ProcId, Message]]

#: What an evicted row reads as.
_NO_CELLS: Dict[ProcId, Message] = {}


def cell_order(cell: Tuple) -> Tuple:
    """Buffer order of a vector entry: destination, processor, R before E.

    The sort key of :meth:`ForwardingBuffers.iter_messages` order for any
    ``(d, p, kind, ...)`` entry; the symmetry reducer re-sorts permuted
    canons by it."""
    return cell[0], cell[1], cell[2] == "E"


class ForwardingBuffers:
    """All ``bufR``/``bufE`` buffers of one SSMFP instance."""

    __slots__ = ("n", "_r", "_e", "_occupied", "_occupied_set",
                 "_notify", "_planes", "_anchor", "_journal")

    def __init__(self, n: int) -> None:
        self.n = n
        self._r: _Plane = {}
        self._e: _Plane = {}
        self._planes: Dict[str, _Plane] = {"R": self._r, "E": self._e}
        #: Per-destination occupancy counts; zero-count entries are evicted,
        #: so the dict's key set *is* the set of live destinations.
        self._occupied: Dict[DestId, int] = {}
        #: Destinations with a nonzero occupancy count — maintained on every
        #: write so "which components hold messages" is O(occupied), not an
        #: O(n) sweep of the counts.
        self._occupied_set: Set[DestId] = set()
        self._notify: Optional[WriteNotifier] = None
        #: The vector last restored to, and ``{(d, p, kind): message the
        #: cell held at the anchor}`` for every cell written since.  The
        #: journal is armed (not None) by the first :meth:`restore`; a
        #: simulation never restores and pays one test per write.
        self._anchor: Optional[StateVector] = None
        self._journal: Optional[Dict[Tuple[DestId, ProcId, str],
                                     Optional[Message]]] = None

    def bind_notifier(self, notify: Optional[WriteNotifier]) -> None:
        """Install (or remove) the write-notification hook, replacing any
        hooks currently bound."""
        self._notify = notify

    def add_notifier(self, notify: WriteNotifier) -> None:
        """Chain one more write-notification hook *behind* whatever is
        already bound (the incremental engine's dirty-set hook keeps
        firing first, then the new subscriber — how the message tracer
        attaches without disturbing the engine)."""
        previous = self._notify
        if previous is None:
            self._notify = notify
            return

        def chained(d: DestId, p: ProcId, kind: str) -> None:
            previous(d, p, kind)
            notify(d, p, kind)

        self._notify = chained

    # -- mutation (all buffer writes go through these, keeping counts right) --

    def _bump(self, d: DestId, delta: int) -> None:
        occ = self._occupied.get(d, 0) + delta
        if occ:
            self._occupied[d] = occ
            self._occupied_set.add(d)
        else:
            self._occupied.pop(d, None)
            self._occupied_set.discard(d)

    def _write(self, plane: _Plane, kind: str, d: DestId, p: ProcId,
               msg: Optional[Message]) -> None:
        """Store one cell and notify — everything a buffer write is, below
        the journal."""
        self._store(plane, d, p, msg)
        if self._notify is not None:
            self._notify(d, p, kind)

    def _store(self, plane: _Plane, d: DestId, p: ProcId,
               msg: Optional[Message]) -> None:
        """Store one cell of ``plane`` (materializing/evicting as needed)
        and keep the occupancy index exact."""
        row = plane.get(d)
        if msg is None:
            if row is not None and p in row:
                del row[p]
                if not row:
                    del plane[d]
                self._bump(d, -1)
        else:
            if row is None:
                row = plane[d] = {}
            if p not in row:
                self._bump(d, 1)
            row[p] = msg

    def set_r(self, d: DestId, p: ProcId, msg: Optional[Message]) -> None:
        """Write ``bufR_p(d)``."""
        if self._journal is not None:
            self._journal.setdefault((d, p, "R"), self.get_r(d, p))
        self._write(self._r, "R", d, p, msg)

    def set_e(self, d: DestId, p: ProcId, msg: Optional[Message]) -> None:
        """Write ``bufE_p(d)``."""
        if self._journal is not None:
            self._journal.setdefault((d, p, "E"), self.get_e(d, p))
        self._write(self._e, "E", d, p, msg)

    def move_r_to_e(self, d: DestId, p: ProcId, recolored: Message) -> None:
        """Rule R2's simultaneous write: fill ``bufE``, empty ``bufR``."""
        if self._journal is not None:
            self._journal.setdefault((d, p, "E"), self.get_e(d, p))
            self._journal.setdefault((d, p, "R"), self.get_r(d, p))
        erow = self._e.get(d)
        if erow is None:
            erow = self._e[d] = {}
        erow[p] = recolored
        rrow = self._r.get(d)  # occupancy unchanged: one in, one out
        if rrow is not None and p in rrow:
            del rrow[p]
            if not rrow:
                del self._r[d]
        if self._notify is not None:
            self._notify(d, p, "E")

    # -- reads ---------------------------------------------------------------

    def get_r(self, d: DestId, p: ProcId) -> Optional[Message]:
        """``bufR_p(d)``, or None when empty."""
        row = self._r.get(d)
        return None if row is None else row.get(p)

    def get_e(self, d: DestId, p: ProcId) -> Optional[Message]:
        """``bufE_p(d)``, or None when empty."""
        row = self._e.get(d)
        return None if row is None else row.get(p)

    def rows(self, d: DestId) -> Tuple[Dict[ProcId, Message], Dict[ProcId, Message]]:
        """The occupied cells of component ``d``, by plane.

        ``({p: bufR_p(d)}, {p: bufE_p(d)})`` — the stored sparse rows, for
        a reader that visits several processors of one component.  Never
        write them."""
        return self._r.get(d, _NO_CELLS), self._e.get(d, _NO_CELLS)

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> StateVector:
        """Sparse state vector: one ``(d, p, kind, message)`` entry per
        occupied buffer, in :meth:`iter_messages` order.  Messages are
        immutable and shared by reference.  Canonical: two instances with
        the same stored messages produce the same vector regardless of the
        materialization/eviction history.  With nothing written since the
        last :meth:`restore` the anchor itself comes back; otherwise the
        anchor is patched with the journaled cells' current contents."""
        anchor = self._anchor
        if anchor is None:
            return tuple(self.iter_messages())
        journal = self._journal
        if not journal:
            return anchor
        cells = [cell for cell in anchor if cell[:3] not in journal]
        planes = self._planes
        for key in journal:
            d, p, kind = key
            row = planes[kind].get(d)
            if row is not None and p in row:
                cells.append((d, p, kind, row[p]))
        cells.sort(key=cell_order)
        return tuple(cells)

    def restore(self, vec: StateVector) -> None:
        """Write only the cells that differ, keeping the occupancy indexes
        exact and notifying every real change like any other write.
        Handed its anchor, the journal names those cells; any other vector
        is diffed against the whole store and becomes the anchor."""
        journal = self._journal
        planes = self._planes
        if vec is self._anchor:
            for (d, p, kind), msg in journal.items():
                plane = planes[kind]
                row = plane.get(d)
                if (None if row is None else row.get(p)) is not msg:
                    self._write(plane, kind, d, p, msg)
            journal.clear()
            return
        target = {(d, p, kind): msg for d, p, kind, msg in vec}
        writes = []
        for kind, plane in planes.items():
            for d, row in plane.items():
                for p, msg in row.items():
                    wanted = target.pop((d, p, kind), None)
                    if wanted is not msg:
                        writes.append((kind, d, p, wanted))
        writes.extend((kind, d, p, msg) for (d, p, kind), msg in target.items())
        for kind, d, p, msg in writes:
            self._write(planes[kind], kind, d, p, msg)
        self._anchor = vec
        if journal is None:
            self._journal = {}
        else:
            journal.clear()

    def undo(self) -> None:
        """Put every journaled cell back to its anchor content: a plain
        store, occupancy exact, nothing notified.  For an owner whose
        change-derived state is already exact for the anchor (the quiet
        return of ``statemodel/snapshot.py``); anyone else restores."""
        planes = self._planes
        for (d, p, kind), msg in self._journal.items():
            self._store(planes[kind], d, p, msg)
        self._journal.clear()

    # -- queries ------------------------------------------------------------

    def occupied_components(self) -> Set[DestId]:
        """Destinations with at least one nonempty buffer — the live index
        maintained by the mutators (treat as read-only)."""
        return self._occupied_set

    def total_occupied(self) -> int:
        """Nonempty buffers across all components — O(occupied
        destinations), summing the counts the occupied-set indexes, never a
        dense O(n) sweep."""
        occupied = self._occupied
        return sum(occupied[d] for d in self._occupied_set)

    def iter_messages(self) -> Iterator[Tuple[DestId, ProcId, str, Message]]:
        """Yield every stored message as ``(dest, proc, kind, message)``
        with kind in {"R", "E"} — destinations ascending, processors
        ascending, R before E per processor (the dense-era order, preserved
        so snapshots stay bit-identical)."""
        for d in sorted(self._occupied_set):
            row_r, row_e = self.rows(d)
            for p in sorted(row_r.keys() | row_e.keys()):
                if p in row_r:
                    yield (d, p, "R", row_r[p])
                if p in row_e:
                    yield (d, p, "E", row_e[p])

    def copies_of(self, uid: int) -> List[Tuple[DestId, ProcId, str]]:
        """Locations of every stored copy of the message with hidden ``uid``."""
        return [
            (d, p, kind)
            for d, p, kind, msg in self.iter_messages()
            if msg.uid == uid
        ]
