"""Shared bookkeeping for (processor, destination) component caches.

SSMFP is ``n`` mutually independent per-destination algorithms running
simultaneously (the paper makes the decomposition explicit), and the
routing protocol ``A`` has the same shape: every guard at processor ``p``
for destination ``d`` reads only component ``d`` in the closed neighborhood
of ``p``.  A write therefore dirties a handful of ``(p, d)`` *components*,
not whole processors — and a protocol that caches its rule-produced
:class:`~repro.statemodel.action.Action` lists per component only has to
re-evaluate the dirty ones.

:class:`ComponentDirtyCache` is what both component-tracking protocols
share: the dirt (``{processor: destinations to re-evaluate}``), the set of
processors whose entries were built since the last wholesale invalidation,
the list last served to each processor, and
:meth:`~ComponentDirtyCache.enabled_actions` — the one valid → rebuild |
dirty → reconcile → splice sequence, O(dirty · log occupied) plus one
list copy per processor and never O(n).  The owning protocol contributes
only what is
its own: which writes dirty which components, how one component is
evaluated, and which destinations a rebuild must examine.

Everything is a plain ``set`` / ``dict`` keyed by processor and filled on
first touch, so an idle cache costs nothing regardless of ``n``.

Snapshot discipline makes the cached actions safe to reuse: an action binds
every value it will write at guard-evaluation time, so as long as no read
of the component's guards changed (exactly what "not dirty" means), the
cached action list is bit-identical to a fresh evaluation.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from operator import attrgetter
from typing import Callable, Dict, Iterable, List, Sequence, Set

from repro.statemodel.action import Action
from repro.types import DestId, ProcId

_DEST = attrgetter("dest")  # the sort key of a served list


class ComponentDirtyCache:
    """Per-(processor, destination) dirty sets and served enabled lists."""

    __slots__ = ("valid", "dirty", "served", "evals")

    def __init__(self) -> None:
        #: Processors whose entries have been built since the last
        #: :meth:`invalidate_all`.
        self.valid: Set[ProcId] = set()
        #: ``dirty[p]`` — destinations whose component at ``p`` must be
        #: re-evaluated before ``p``'s enabled list is served again.  A
        #: processor is a key exactly while its list must be served again:
        #: with such a destination, or with none after :meth:`retire`.
        self.dirty: Dict[ProcId, Set[DestId]] = {}
        #: ``served[p]`` — the non-empty list last served for ``p``: its
        #: components' actions, by ascending ``Action.dest``.  Handed out
        #: as is and never written again; a change goes into a copy.
        self.served: Dict[ProcId, List[Action]] = {}
        #: Component evaluations performed so far — one per destination
        #: examined, by a rebuild or a reconcile alike.
        self.evals = 0

    def mark(self, pid: ProcId, d: DestId) -> None:
        """Dirty the single component ``(pid, d)``."""
        row = self.dirty.get(pid)
        if row is None:
            self.dirty[pid] = {d}
        else:
            row.add(d)

    def mark_many(self, pids: Iterable[ProcId], d: DestId) -> None:
        """Dirty component ``d`` at every processor in ``pids``."""
        dirty = self.dirty
        for pid in pids:
            row = dirty.get(pid)
            if row is None:
                dirty[pid] = {d}
            else:
                row.add(d)

    def retire(self, pid: ProcId, d: DestId) -> None:
        """Take back the mark of ``(pid, d)`` and splice its actions out
        without evaluating it — for a write that is known to leave no rule
        enabled there — while ``pid`` stays reported, so its list is served
        again without them."""
        self.dirty[pid].discard(d)
        old = self.served.get(pid)
        if old:
            lo = bisect_left(old, d, key=_DEST)
            hi = bisect_right(old, d, lo, key=_DEST)
            if hi - lo == len(old):
                del self.served[pid]
            elif lo != hi:
                new = old[:]
                del new[lo:hi]
                self.served[pid] = new

    def invalidate_all(self) -> None:
        """Drop every entry and every recorded dirty bit, so every
        processor is rebuilt from the configuration — used when guards are
        read where writes went unmarked (a verifier transition's
        excursion).  O(touched processors), not O(n)."""
        self.valid.clear()
        self.dirty.clear()
        self.served.clear()

    def pending(self) -> Dict[ProcId, Set[DestId]]:
        """A copy of the recorded dirt, ``{processor: destinations}``."""
        return {pid: set(dests) for pid, dests in self.dirty.items()}

    def reset(self, pending: Dict[ProcId, Set[DestId]]) -> None:
        """Replace the recorded dirt with ``pending`` (entries and
        validity untouched) — the return to a configuration whose cache
        state was saved with :meth:`pending`."""
        self.dirty = {pid: set(dests) for pid, dests in pending.items()}

    def enabled_actions(
        self,
        pid: ProcId,
        evaluate: Callable[[ProcId, DestId], List[Action]],
        active: Callable[[ProcId], Sequence[DestId]],
    ) -> List[Action]:
        """``pid``'s enabled list, after bringing its entries up to date.

        A processor not yet valid is rebuilt from ``active(pid)`` — the
        destinations that can hold an enabled rule, ascending, which is
        all a first evaluation needs; a valid one re-evaluates only its
        dirty components with ``evaluate(pid, d)``.  Either way the dirt
        is consumed.  A clean poll (a masked re-poll, say) serves the list
        served last time; a dirty one splices each evaluated component
        into a copy of it, bisecting the ascending destinations — the
        order of a left-to-right scan, which daemons observe."""
        dests = self.dirty.pop(pid, None)
        if pid not in self.valid:
            # Entries are dropped with validity, so there is none to clear.
            self.valid.add(pid)
            dests = active(pid)
        if not dests:
            return self.served.get(pid) or []
        self.evals += len(dests)
        old = out = self.served.get(pid, ())
        for d in dests:
            acts = evaluate(pid, d)
            lo = bisect_left(out, d, key=_DEST)
            hi = bisect_right(out, d, lo, key=_DEST)
            if acts or lo != hi:
                if out is old:  # the scheduler or the verifier may hold it
                    out = list(old)
                out[lo:hi] = acts
        if out is old:
            return old or []
        if out:
            self.served[pid] = out
        elif old:
            del self.served[pid]
        return out
