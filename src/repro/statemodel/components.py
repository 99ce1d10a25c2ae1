"""Shared bookkeeping for (processor, destination) component caches.

SSMFP is ``n`` mutually independent per-destination algorithms running
simultaneously (the paper makes the decomposition explicit), and the
routing protocol ``A`` has the same shape: every guard at processor ``p``
for destination ``d`` reads only component ``d`` in the closed neighborhood
of ``p``.  A write therefore dirties a handful of ``(p, d)`` *components*,
not whole processors — and a protocol that caches its rule-produced
:class:`~repro.statemodel.action.Action` lists per component only has to
re-evaluate the dirty ones.

:class:`ComponentDirtyCache` is the data structure both component-tracking
protocols share: per-processor dirty destination sets, a set of processors
with any dirty component (what :meth:`Protocol.dirty_after` reports to the
simulator), per-processor validity flags (``False`` after a wholesale
invalidation), and a per-processor index of *non-empty* component entries
so a processor's enabled list is assembled in O(occupied components), never
O(n).  The evaluation itself stays in the owning protocol — the cache only
does bookkeeping.

Storage is **sparse**: per-processor sets/entries materialize on first
touch and ``invalidate_all`` is O(materialized), so an idle cache costs
nothing regardless of ``n`` — a processor the traffic never reached has no
allocation anywhere.  The ``valid[p]`` / ``dirty[p]`` / ``entries[p]``
indexing idiom is preserved through autovivifying mapping views.

Snapshot discipline makes the cached actions safe to reuse: an action binds
every value it will write at guard-evaluation time, so as long as no read
of the component's guards changed (exactly what "not dirty" means), the
cached action list is bit-identical to a fresh evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Set

from repro.statemodel.action import Action
from repro.types import DestId, ProcId


class _ValidFlags:
    """``valid[p]`` view over the set of valid processors: reads never
    allocate, ``valid[p] = True/False`` updates the set."""

    __slots__ = ("_valid",)

    def __init__(self) -> None:
        self._valid: Set[ProcId] = set()

    def __getitem__(self, pid: ProcId) -> bool:
        return pid in self._valid

    def __setitem__(self, pid: ProcId, value: bool) -> None:
        if value:
            self._valid.add(pid)
        else:
            self._valid.discard(pid)

    def clear(self) -> None:
        self._valid.clear()


class _AutoMap:
    """``m[p]`` get-or-creates an empty container (set or dict) — the
    per-processor lazy slot behind ``dirty`` and ``entries``."""

    __slots__ = ("_rows", "_factory")

    def __init__(self, factory) -> None:
        self._rows: Dict[ProcId, object] = {}
        self._factory = factory

    def __getitem__(self, pid: ProcId):
        row = self._rows.get(pid)
        if row is None:
            row = self._rows[pid] = self._factory()
        return row

    def get(self, pid: ProcId):
        """Non-materializing read: the container or None."""
        return self._rows.get(pid)

    def prune(self) -> None:
        """Drop materialized-but-empty slots (quiescence eviction)."""
        stale = [pid for pid, row in self._rows.items() if not row]
        for pid in stale:
            del self._rows[pid]

    def clear(self) -> None:
        self._rows.clear()

    def __len__(self) -> int:
        return len(self._rows)


class ComponentDirtyCache:
    """Per-(processor, destination) dirty sets and enabled-action entries."""

    __slots__ = ("n", "valid", "dirty", "dirty_pids", "entries")

    def __init__(self, n: int) -> None:
        self.n = n
        #: ``valid[p]`` — False until ``p``'s entries have been (re)built.
        self.valid = _ValidFlags()
        #: ``dirty[p]`` — destinations whose component at ``p`` must be
        #: re-evaluated before ``p``'s enabled list is served again.
        self.dirty = _AutoMap(set)
        #: Processors with any dirty component (the simulator-facing set).
        self.dirty_pids: Set[ProcId] = set()
        #: ``entries[p]`` — component -> non-empty enabled-action list.
        self.entries = _AutoMap(dict)

    def mark(self, pid: ProcId, d: DestId) -> None:
        """Dirty the single component ``(pid, d)``."""
        rows = self.dirty._rows
        row = rows.get(pid)
        if row is None:
            row = rows[pid] = set()
        row.add(d)
        self.dirty_pids.add(pid)

    def mark_many(self, pids: Iterable[ProcId], d: DestId) -> None:
        """Dirty component ``d`` at every processor in ``pids`` (typically a
        writer's closed neighborhood)."""
        rows = self.dirty._rows
        for p in pids:
            row = rows.get(p)
            if row is None:
                row = rows[p] = set()
            row.add(d)
        self.dirty_pids.update(pids)

    def invalidate_all(self) -> None:
        """Drop every entry and every recorded dirty bit — used when the
        owning protocol leaves its all-dirty regime and must rebuild from
        the (possibly externally rewritten) configuration.  O(materialized
        slots), not O(n): untouched processors have nothing to drop."""
        self.valid.clear()
        self.dirty.clear()
        self.dirty_pids.clear()
        self.entries.clear()

    def pending(self) -> Dict[ProcId, Set[DestId]]:
        """A copy of the recorded dirt, ``{processor: destinations}``."""
        rows = self.dirty._rows
        return {pid: set(rows[pid]) for pid in self.dirty_pids}

    def reset(self, pending: Dict[ProcId, Set[DestId]]) -> None:
        """Replace the recorded dirt with ``pending`` (entries and
        validity untouched) — the return to a configuration whose cache
        state was saved with :meth:`pending`."""
        rows = self.dirty._rows
        for pid in self.dirty_pids:
            rows[pid].clear()
        self.dirty_pids.clear()
        for pid, dests in pending.items():
            self.dirty[pid].update(dests)
            self.dirty_pids.add(pid)

    def prune(self) -> None:
        """Evict empty per-processor slots so a processor whose traffic
        quiesced costs no memory again."""
        self.dirty.prune()
        self.entries.prune()

    def materialized_pids(self) -> Set[ProcId]:
        """Processors with any materialized slot — the memory footprint
        index used by tests and the scale bench."""
        return set(self.dirty._rows) | set(self.entries._rows)

    def assemble(self, pid: ProcId) -> List[Action]:
        """``pid``'s enabled list from its non-empty component entries, in
        ascending destination order (the order a classic left-to-right scan
        produces — daemons observe it, so it is part of the contract)."""
        entries = self.entries.get(pid)
        if not entries:
            return []
        if len(entries) == 1:
            (acts,) = entries.values()
            return list(acts)
        out: List[Action] = []
        for d in sorted(entries):
            out.extend(entries[d])
        return out
