"""The ``choice_p(d)`` fairness queue.

The paper manages the fair selection of which requester (a neighbor with a
message to forward into ``bufR_p(d)``, or ``p`` itself wanting to generate)
is served next "with a queue of length Δ+1".  :class:`FairChoiceQueue`
implements exactly that: requesters enter at the tail when they start
satisfying the candidate predicate, leave when served or when they stop
satisfying it, and ``choice_p(d)`` is the head.  Bounded bypass: a candidate
waits behind at most Δ others.

One deliberately *broken* policy is provided for the ablation benches:
``"fixed"`` (always the smallest identity) can starve a requester forever,
which is the livelock the paper's fairness exists to prevent.

A third policy, ``"aged"``, explores the paper's §4 future work (speed up
the worst case by changing the selection scheme): candidates are served in
decreasing order of how far their waiting message has already traveled
(its hop count), so fresh traffic cannot keep passing an old message at
every hop.  The exhaustive liveness checker found its flaw: a *generation
request* has no hops, so a persistent stream outranks it forever —
starvation.  The fourth policy, ``"aged_fair"``, fixes that: every
candidate also ages by *waiting time* (syncs spent in the queue, divided
by ``wait_slowdown`` and capped), and the effective priority is the max of
the two ages.  A starving request's wait-age grows past any bounded hop
count, so service is guaranteed — verified exhaustively in
``tests/test_liveness.py`` — while the slow accrual keeps in-flight
messages' speed advantage (with ``wait_slowdown=1`` the policy degrades
gracefully toward FIFO under saturation).

One instance's queues live in a sparse :class:`LazyChoiceTable`: read
through ``head`` / ``peek`` / ``row``, written by the rules through
``serve`` / ``force`` and by the environment phase through the
materialized queue's ``sync``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.types import ProcId

_POLICIES = ("fifo", "fixed", "aged", "aged_fair")

#: Change-notification callback installed by :meth:`FairChoiceQueue.bind_notifier`:
#: called with the queue's bound key plus an event kind — ``"sync"`` when a
#: reconciliation changed the observable head, ``"mutate"`` when the queue was
#: mutated outside reconciliation (serve / force) and therefore needs a
#: re-sync before the next guard evaluation.
ChangeNotifier = Callable[[object, str], None]


def _waits(wait: Dict[ProcId, int]) -> Tuple:
    """The wait-ages as a sorted tuple — ``()`` without sorting for every
    policy but ``aged_fair``, whose queues are the only ones that keep any."""
    return tuple(sorted(wait.items())) if wait else ()


class FairChoiceQueue:
    """Queue of requesters for one reception buffer ``bufR_p(d)``."""

    __slots__ = ("_q", "_policy", "_wait", "_wait_cap", "_wait_slowdown",
                 "_notify", "_key", "_journal")

    def __init__(
        self,
        policy: str = "fifo",
        wait_cap: int = 256,
        wait_slowdown: int = 32,
    ) -> None:
        if policy not in _POLICIES:
            raise ValueError(f"unknown choice policy {policy!r}; want one of {_POLICIES}")
        if wait_cap < 1:
            raise ValueError(f"wait_cap must be positive, got {wait_cap}")
        if wait_slowdown < 1:
            raise ValueError(f"wait_slowdown must be positive, got {wait_slowdown}")
        self._q: List[ProcId] = []
        self._policy = policy
        #: aged_fair only: syncs each candidate has waited (capped so the
        #: state space stays finite for exhaustive exploration).
        self._wait: Dict[ProcId, int] = {}
        self._wait_cap = wait_cap
        self._wait_slowdown = wait_slowdown
        self._notify: Optional[ChangeNotifier] = None
        self._key: object = None
        #: The owning table's restore journal (``{key: state at the
        #: anchor}``, see :class:`LazyChoiceTable`), or None while unarmed.
        self._journal: Optional[Dict[object, Tuple]] = None

    @property
    def policy(self) -> str:
        """The selection policy ("fifo" is the paper's)."""
        return self._policy

    def bind_notifier(self, notify: Optional[ChangeNotifier], key: object) -> None:
        """Install the change-notification hook; ``key`` identifies this
        queue to the receiver (SSMFP binds its ``(d, p)`` coordinates)."""
        self._notify = notify
        self._key = key

    def sync(
        self,
        candidates: Iterable[ProcId],
        priority: Optional[Dict[ProcId, int]] = None,
    ) -> None:
        """Reconcile the queue with the current candidate set.

        Requesters that stopped satisfying the predicate leave; new ones
        enter at the tail (fifo); "fixed" ignores arrival order entirely;
        "aged" orders by decreasing ``priority`` (the waiting message's hop
        count), FIFO-stable within equal ages.
        """
        cand = set(candidates)
        if not cand and not self._q:
            # Empty-to-empty reconcile: nothing to reorder, the head stays
            # None so there is nothing to notify, and no wait-age can exist
            # without a queued candidate.  This is the dominant case when a
            # full reconcile sweeps a mostly-idle component, so skip the
            # list rebuilds entirely.
            return
        old_q, old_wait = self._q, self._wait
        if self._policy == "fixed":
            self._q = sorted(cand)
            self._synced(old_q, old_wait)
            return
        kept = [x for x in old_q if x in cand]
        fresh = sorted(cand.difference(kept))
        if self._policy == "fifo":
            self._q = kept + fresh
        elif self._policy == "aged":
            prio = priority or {}
            arrival = {x: i for i, x in enumerate(kept + fresh)}
            self._q = sorted(cand, key=lambda x: (-prio.get(x, -1), arrival[x]))
        else:  # aged_fair
            prio = priority or {}
            cap = self._wait_cap
            wait = self._wait = {
                x: min(old_wait.get(x, -1) + 1, cap) for x in cand
            }
            arrival = {x: i for i, x in enumerate(kept + fresh)}
            self._q = sorted(
                cand,
                key=lambda x: (
                    -max(prio.get(x, -1), wait[x] // self._wait_slowdown),
                    arrival[x],
                ),
            )
        self._synced(old_q, old_wait)

    def _synced(self, old_q: List[ProcId], old_wait: Dict[ProcId, int]) -> None:
        """Close a reconcile that replaced ``old_q`` / ``old_wait``:
        journal the queue if its *content* changed (a head-preserving
        reorder fires no notification, so the journal cannot ride on the
        notifier), notify if the head did."""
        q = self._q
        journal = self._journal
        if (
            journal is not None
            and self._key not in journal
            and (q != old_q or self._wait != old_wait)
        ):
            journal[self._key] = (tuple(old_q), _waits(old_wait))
        if self._notify is not None:
            if (q[0] if q else None) != (old_q[0] if old_q else None):
                self._notify(self._key, "sync")

    def _touch(self) -> None:
        """Journal the state an in-place mutation is about to overwrite."""
        journal = self._journal
        if journal is not None and self._key not in journal:
            journal[self._key] = self.state()

    def head(self) -> Optional[ProcId]:
        """The paper's ``choice_p(d)``: the requester served next, or None
        when nobody requests."""
        return self._q[0] if self._q else None

    def serve(self, s: ProcId) -> None:
        """Remove ``s`` after its message was copied / generated; it
        re-enters at the tail (with a reset wait-age) if it requests
        again."""
        if self._journal is not None:
            self._touch()
        try:
            self._q.remove(s)
        except ValueError:
            self._wait.pop(s, None)
            return
        self._wait.pop(s, None)
        if self._notify is not None:
            self._notify(self._key, "mutate")

    def items(self) -> List[ProcId]:
        """Current queue contents, head first (diagnostics, corruption)."""
        return list(self._q)

    def force(self, order: List[ProcId]) -> None:
        """Overwrite the queue (used to model arbitrary initial states)."""
        self._touch()
        self._q = list(order)
        self._wait = {}
        if self._notify is not None:
            self._notify(self._key, "mutate")

    def state(self) -> Tuple:
        """Canonical serialization (order plus wait-ages) for state-space
        exploration."""
        return (tuple(self._q), _waits(self._wait))

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> Tuple:
        """State vector of this queue — identical to :meth:`state`, so the
        verifier's canonical form and its restore source are one value."""
        return self.state()

    def restore(self, vec: Tuple) -> None:
        """Reinstate a previously captured :meth:`snapshot`.  A no-op when
        the queue already matches; otherwise the content is replaced and an
        out-of-sync ``"mutate"`` change is reported (the restored order need
        not be reachable by a reconcile from the current candidates)."""
        if self.state() == vec:
            return
        order, waits = vec
        self._touch()
        self._q = list(order)
        self._wait = dict(waits)
        if self._notify is not None:
            self._notify(self._key, "mutate")

    def __len__(self) -> int:
        return len(self._q)

    def __repr__(self) -> str:
        return f"FairChoiceQueue({self._q!r}, policy={self._policy})"


#: What a component with no materialized queue reads as.
_NO_QUEUES: Dict[ProcId, FairChoiceQueue] = {}

#: The canonical clean-empty queue state — what an unmaterialized entry
#: reads as, and the eviction criterion (a queue in this state is
#: indistinguishable from no queue at all).
EMPTY_QUEUE_STATE: Tuple = ((), ())


class LazyChoiceTable:
    """Sparse ``{d: {p: FairChoiceQueue}}`` store of all ``choice_p(d)``
    queues of one SSMFP instance.

    Queues are materialized on first mutation and evicted once clean-empty
    again (:meth:`evict_if_clean`); an absent queue reads as clean-empty,
    which is semantically identical — memory is O(queues with content or
    candidates), not O(n²).  Readers use :meth:`head`, :meth:`peek` and
    :meth:`row`, none of which materializes; the rules write through
    :meth:`serve` and :meth:`force`.

    The table is the snapshot unit (``statemodel/snapshot.py``): its
    vector lists the nonempty queue states, and once the first
    :meth:`restore` has armed the journal every queue records, under its
    ``(d, p)`` key, the state it held at the anchor before its content
    first changed.
    """

    __slots__ = ("policy", "_wait_cap", "_wait_slowdown", "_rows", "_notify",
                 "_anchor", "_journal")

    def __init__(
        self,
        policy: str = "fifo",
        wait_cap: int = 256,
        wait_slowdown: int = 32,
    ) -> None:
        # Validate eagerly: the dense table constructed n² queues at init,
        # surfacing bad parameters immediately, and callers rely on that.
        if policy not in _POLICIES:
            raise ValueError(f"unknown choice policy {policy!r}; want one of {_POLICIES}")
        if wait_cap < 1:
            raise ValueError(f"wait_cap must be positive, got {wait_cap}")
        if wait_slowdown < 1:
            raise ValueError(f"wait_slowdown must be positive, got {wait_slowdown}")
        self.policy = policy
        self._wait_cap = wait_cap
        self._wait_slowdown = wait_slowdown
        self._rows: Dict[object, Dict[ProcId, FairChoiceQueue]] = {}
        self._notify: Optional[ChangeNotifier] = None
        self._anchor: Optional[Tuple] = None
        #: Shared with every materialized queue; None until armed.
        self._journal: Optional[Dict[object, Tuple]] = None

    def bind_notifier(self, notify: Optional[ChangeNotifier]) -> None:
        """Install the change hook applied (with key ``(d, p)``) to every
        queue, existing and future."""
        self._notify = notify
        for d, row in self._rows.items():
            for p, q in row.items():
                q.bind_notifier(notify, (d, p))

    def peek(self, d, p) -> Optional[FairChoiceQueue]:
        """The materialized queue, or None — never materializes."""
        row = self._rows.get(d)
        return None if row is None else row.get(p)

    def head(self, d, p) -> Optional[ProcId]:
        """``choice_p(d)``; None for an absent queue."""
        row = self._rows.get(d)
        if row is None:
            return None
        q = row.get(p)
        return None if q is None else q.head()

    def row(self, d) -> Dict[ProcId, FairChoiceQueue]:
        """The materialized queues of component ``d`` as ``{p: queue}``.

        The stored row, for a reader that visits several processors of one
        component.  Never write it."""
        return self._rows.get(d, _NO_QUEUES)

    def serve(self, d, p, s: ProcId) -> None:
        """:meth:`FairChoiceQueue.serve` at ``(d, p)``; serving from an
        absent (clean-empty) queue is a no-op."""
        queue = self.peek(d, p)
        if queue is not None:
            queue.serve(s)

    def force(self, d, p, order: List[ProcId]) -> None:
        """:meth:`FairChoiceQueue.force` at ``(d, p)``.  Always
        materializes, so even an empty ``order`` reports its ``"mutate"``
        (the notifier lives on the real queue)."""
        self.materialize(d, p).force(order)

    def materialize(self, d, p) -> FairChoiceQueue:
        """Get-or-create the real queue at ``(d, p)``."""
        row = self._rows.get(d)
        if row is None:
            row = self._rows[d] = {}
        q = row.get(p)
        if q is None:
            q = row[p] = FairChoiceQueue(
                self.policy,
                wait_cap=self._wait_cap,
                wait_slowdown=self._wait_slowdown,
            )
            q.bind_notifier(self._notify, (d, p))
            q._journal = self._journal
        return q

    def evict_if_clean(self, d, p) -> bool:
        """Drop the queue at ``(d, p)`` if it is clean-empty.  Unobservable:
        re-materialization yields the identical state, and no notification
        fires (the head was and stays None)."""
        row = self._rows.get(d)
        if row is None:
            return False
        q = row.get(p)
        if q is None or q.state() != EMPTY_QUEUE_STATE:
            return False
        del row[p]
        if not row:
            del self._rows[d]
        return True

    def iter_materialized(self) -> Iterable[Tuple[object, ProcId, FairChoiceQueue]]:
        """Every materialized queue as ``(d, p, queue)`` (unordered)."""
        for d, row in self._rows.items():
            for p, q in row.items():
                yield d, p, q

    def sorted_states(self) -> List[Tuple]:
        """Canonical sparse serialization: ``(d, p, state)`` ascending for
        every queue with nonempty state — identical across differently
        materialized instances of the same logical configuration."""
        out = []
        for d in sorted(self._rows):
            row = self._rows[d]
            for p in sorted(row):
                state = row[p].state()
                if state != EMPTY_QUEUE_STATE:
                    out.append((d, p, state))
        return out

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> Tuple:
        """State vector: :meth:`sorted_states` as a tuple — or, with no
        queue content changed since the last :meth:`restore`, the anchor
        itself, and otherwise the anchor patched with the journaled
        queues' current states."""
        anchor = self._anchor
        if anchor is None:
            return tuple(self.sorted_states())
        journal = self._journal
        if not journal:
            return anchor
        entries = [entry for entry in anchor if entry[:2] not in journal]
        for key in journal:
            d, p = key
            queue = self.peek(d, p)
            if queue is not None:
                state = queue.state()
                if state != EMPTY_QUEUE_STATE:
                    entries.append((d, p, state))
        entries.sort()  # (d, p) is unique: states are never compared
        return tuple(entries)

    def restore(self, vec: Tuple) -> None:
        """Reinstate a previously captured :meth:`snapshot` through the
        queues' own :meth:`FairChoiceQueue.restore` (a ``"mutate"`` event
        per queue that really changes); queues left clean-empty are
        evicted.  Handed its anchor, only the journaled queues are
        visited; any other vector is diffed against every materialized
        queue and becomes the anchor."""
        journal = self._journal
        if vec is self._anchor:
            for (d, p), state in journal.items():
                self._restore_queue(d, p, state)
            journal.clear()
            return
        target = {(d, p): state for d, p, state in vec}
        stale = [
            (d, p) for d, row in self._rows.items() for p in row
            if (d, p) not in target
        ]
        for d, p in stale:
            self._restore_queue(d, p, EMPTY_QUEUE_STATE)
        for (d, p), state in target.items():
            self._restore_queue(d, p, state)
        self._anchor = vec
        if journal is None:
            journal = self._journal = {}
            for _, _, queue in self.iter_materialized():
                queue._journal = journal
        else:
            journal.clear()

    def undo(self) -> None:
        """Put every journaled queue back to its anchor content: the lists
        are written straight back (a clean-empty queue is left absent),
        nothing is compared or notified.  For an owner whose
        change-derived state is already exact for the anchor (the quiet
        return of ``statemodel/snapshot.py``); anyone else restores."""
        rows = self._rows
        for (d, p), (order, waits) in self._journal.items():
            if order or waits:
                queue = self.peek(d, p)
                if queue is None:
                    queue = self.materialize(d, p)
                queue._q = list(order)
                queue._wait = dict(waits)
            else:
                row = rows.get(d)
                if row is not None and row.pop(p, None) is not None and not row:
                    del rows[d]
        self._journal.clear()

    def _restore_queue(self, d, p, state: Tuple) -> None:
        """Bring ``choice_p(d)`` to ``state``; a clean-empty one is left
        (or made) absent."""
        queue = self.peek(d, p)
        if state != EMPTY_QUEUE_STATE:
            if queue is None:
                queue = self.materialize(d, p)
            queue.restore(state)
        elif queue is not None:
            queue.restore(state)
            self.evict_if_clean(d, p)
