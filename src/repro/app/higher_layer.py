"""The higher layer: outboxes, the ``request_p`` handshake, delivery sink.

Semantics follow §3.2 of the paper:

* the higher layer may set ``request_p`` to true only when it is false and a
  message is waiting; it then *blocks* until the protocol resets it (done by
  rule R1 when the message is generated);
* ``nextMessage_p`` / ``nextDestination_p`` expose the waiting message;
* ``deliver_p(m)`` hands a message up at its destination.

Storage is sparse: an outbox materializes when the first submission enters
it and is evicted once drained, and the ``request_p`` flags live in a set
of raised processors behind a list-like view — a processor that never
submits costs nothing, and the per-step raise sweep touches only live
outboxes instead of all ``n`` processors.

One deliberate substitution (documented in DESIGN.md): a message submitted
to *itself* (``dest == p``) is delivered locally at submission time and
never enters the network.  Point-to-point forwarding between distinct
endpoints is the paper's object; routing a self-addressed message through a
corrupted table would let the environment inject traffic the paper's proofs
never consider.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.errors import ConfigurationError
from repro.statemodel.message import Message
from repro.statemodel.snapshot import StateVector
from repro.types import DestId, ProcId

#: A pending send: (payload, destination).
Pending = Tuple[Any, DestId]


class _RequestFlags:
    """List-like view of the raised-request set: ``flags[p]`` reads the
    flag, ``flags[p] = bool`` writes it (the liveness harness lowers flags
    out-of-band this way, so a write drops the owner's snapshot anchor).
    Memory is O(raised), not O(n)."""

    __slots__ = ("_raised", "_owner")

    def __init__(self, owner: "HigherLayer") -> None:
        self._raised: Set[ProcId] = set()
        self._owner = owner

    def __getitem__(self, p: ProcId) -> bool:
        return p in self._raised

    def __setitem__(self, p: ProcId, value: bool) -> None:
        self._owner._anchor = None
        if value:
            self._raised.add(p)
        else:
            self._raised.discard(p)

    def raised(self) -> Set[ProcId]:
        return self._raised


class HigherLayer:
    """Per-processor outboxes with the paper's blocking request handshake.

    Parameters
    ----------
    n:
        Number of processors.
    """

    def __init__(self, n: int) -> None:
        self._n = n
        #: Sparse outboxes: materialized while nonempty, evicted once
        #: drained.  An absent outbox reads as empty everywhere.
        self._outbox: Dict[ProcId, Deque[Pending]] = {}
        #: Messages across every outbox, kept by the mutators.
        self._pending = 0
        #: The shared variable ``request_p`` read by rule R1.
        self.request = _RequestFlags(self)
        self._delivered: List[Tuple[ProcId, Message, int]] = []
        #: ``p -> dest`` for every raised request — the incremental index
        #: behind :meth:`requested_destinations`.  Maintained by the raise
        #: (:meth:`before_step`) / lower (:meth:`consume_request`) pair;
        #: while ``request_p`` is raised the outbox head is stable (submits
        #: append, only ``consume_request`` pops), so the recorded ``dest``
        #: always equals ``nextDestination_p``.
        self._requested: Dict[ProcId, DestId] = {}
        self._on_request_change: Optional[Callable[[ProcId, DestId], None]] = None
        self._on_submit: Optional[
            Callable[[ProcId, Any, DestId, int], None]
        ] = None
        #: The vector last restored to, while the state still equals it —
        #: every mutator drops it (``statemodel/snapshot.py``).
        self._anchor: Optional[StateVector] = None

    def bind_notifier(
        self, notify: Optional[Callable[[ProcId, DestId], None]]
    ) -> None:
        """Install a hook called as ``notify(p, dest)`` whenever the
        ``request_p`` handshake changes observably — raised by
        :meth:`before_step` or lowered by :meth:`consume_request` — with
        ``dest`` the destination the change concerns.  The incremental
        engine uses it to dirty exactly the affected ``(p, d)`` component."""
        self._on_request_change = notify

    def bind_submit_notifier(
        self, notify: Optional[Callable[[ProcId, Any, DestId, int], None]]
    ) -> None:
        """Install a hook called as ``notify(p, payload, dest, step)`` for
        every submission that enters an outbox (self-addressed messages,
        delivered locally at submission time, are not reported — they
        never acquire a uid).  The message-lifecycle tracer subscribes
        here to stamp the ``submit`` end of each causal timeline."""
        self._on_submit = notify

    # -- submission ------------------------------------------------------------

    def submit(self, p: ProcId, payload: Any, dest: DestId, step: int = -1) -> None:
        """Queue a send of ``payload`` from ``p`` to ``dest``.

        Self-addressed messages are delivered locally immediately (see
        module docstring).
        """
        if not (0 <= p < self._n and 0 <= dest < self._n):
            raise ConfigurationError(
                f"submit({p} -> {dest}) out of range for n={self._n}"
            )
        if dest == p:
            return
        self._anchor = None
        box = self._outbox.get(p)
        if box is None:
            box = self._outbox[p] = deque()
        box.append((payload, dest))
        self._pending += 1
        if self._on_submit is not None:
            self._on_submit(p, payload, dest, step)

    def pending_count(self, p: ProcId) -> int:
        """Messages still waiting in ``p``'s outbox (including the one a
        raised request refers to)."""
        box = self._outbox.get(p)
        return 0 if box is None else len(box)

    def total_pending(self) -> int:
        """Outstanding submissions across all processors."""
        return self._pending

    # -- the request handshake (rule R1's counterpart) ---------------------------

    def before_step(self, step: int) -> None:
        """Environment move: raise ``request_p`` wherever it is false and a
        message waits (the paper lets the higher layer do this at any time;
        doing it every step is the maximally eager environment).  Only live
        outboxes are examined — O(live), ascending so the notification
        order matches the dense sweep."""
        notify = self._on_request_change
        raised = self.request.raised()
        for p in sorted(self._outbox):
            if p not in raised:
                self._anchor = None
                raised.add(p)
                dest = self._outbox[p][0][1]
                self._requested[p] = dest
                if notify is not None:
                    notify(p, dest)

    def next_message(self, p: ProcId) -> Any:
        """The paper's ``nextMessage_p`` macro (payload of the waiting
        message)."""
        return self._outbox[p][0][0]

    def next_destination(self, p: ProcId) -> Optional[DestId]:
        """The paper's ``nextDestination_p`` macro; None when nothing
        waits."""
        box = self._outbox.get(p)
        return box[0][1] if box else None

    def queued_destinations(self, p: ProcId) -> Tuple[DestId, ...]:
        """Destinations of ``p``'s queued submissions, head first — the
        verifier's partial-order reduction reads index 1 (the destination
        the request handshake will concern *after* the current head is
        generated)."""
        box = self._outbox.get(p)
        return tuple(item[1] for item in box) if box else ()

    def consume_request(self, p: ProcId) -> Pending:
        """Rule R1's write-back: pop the waiting message and lower
        ``request_p``.  Returns the (payload, dest) that was generated."""
        box = self._outbox.get(p)
        if not box:
            raise ConfigurationError(f"consume_request({p}) with empty outbox")
        item = box.popleft()
        self._pending -= 1
        if not box:
            del self._outbox[p]  # quiescence: drained outboxes are evicted
        self.request[p] = False
        self._requested.pop(p, None)
        if self._on_request_change is not None:
            self._on_request_change(p, item[1])
        return item

    def outboxes(self) -> Tuple[Tuple[ProcId, Tuple[Pending, ...]], ...]:
        """Immutable sparse view of every *nonempty* outbox as ``(p,
        items)`` ascending, head first — the public accessor the verifier's
        canonicalization and :meth:`snapshot` read instead of reaching into
        the private deques.  Canonical: empty outboxes (materialized or
        not) never appear."""
        return tuple(
            (p, tuple(self._outbox[p])) for p in sorted(self._outbox)
        )

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> StateVector:
        """State vector: nonempty outboxes (sparse), raised ``request_p``
        flags (sparse, ascending), the raised-request index and the
        delivery log — or the anchor itself while no mutator has run since
        the last :meth:`restore`."""
        if self._anchor is not None:
            return self._anchor
        return (
            self.outboxes(),
            tuple(sorted(self.request.raised())),
            tuple(sorted(self._requested.items())),
            tuple(self._delivered),
        )

    def restore(self, vec: StateVector) -> None:
        """Reinstate a previously captured :meth:`snapshot`.

        Guards read only ``request_p`` and the outbox *head* (destination
        and payload), so the change notifier fires per processor whose
        handshake-visible state differs — for both the destination it
        concerned before and the one it concerns now.  Only processors live
        on either side are examined.  Handed its anchor there is nothing
        to do; any other vector becomes the anchor."""
        if vec is self._anchor:
            return
        outboxes, raised_vec, requested, delivered = vec
        notify = self._on_request_change
        target_boxes: Dict[ProcId, Tuple[Pending, ...]] = dict(outboxes)
        target_raised = set(raised_vec)
        raised = self.request.raised()
        for p in sorted(set(self._outbox) | set(target_boxes) | raised | target_raised):
            box = self._outbox.get(p)
            new_box = target_boxes.get(p, ())
            old = (p in raised, box[0] if box else None)
            new = (p in target_raised, new_box[0] if new_box else None)
            if (tuple(box) if box else ()) != new_box:
                if new_box:
                    self._outbox[p] = deque(new_box)
                else:
                    self._outbox.pop(p, None)
            self.request[p] = p in target_raised
            if notify is not None and old != new:
                old_dest = old[1][1] if old[1] is not None else None
                new_dest = new[1][1] if new[1] is not None else None
                if old_dest is not None and old_dest != new_dest:
                    notify(p, old_dest)
                if new_dest is not None:
                    notify(p, new_dest)
        self._requested = dict(requested)
        self._delivered = list(delivered)
        self._pending = sum(len(box) for box in self._outbox.values())
        self._anchor = vec

    def requested_destinations(self) -> Set[DestId]:
        """Destinations some processor currently has a raised request for —
        O(raised requests), never an O(n) sweep of the request flags.

        Entries whose ``request_p`` was lowered out-of-band (a subclass
        bypassing :meth:`consume_request`) are filtered against the flag, so
        the index can only over-remember, never under-report a raised
        request."""
        request = self.request
        return {d for p, d in self._requested.items() if request[p]}

    # -- delivery ------------------------------------------------------------

    def deliver(self, p: ProcId, message: Message, step: int) -> None:
        """The paper's ``deliver_p(m)``: hand ``message`` to the application
        at ``p``."""
        self._anchor = None
        self._delivered.append((p, message, step))

    @property
    def delivered(self) -> List[Tuple[ProcId, Message, int]]:
        """Every delivery so far: (processor, message, step)."""
        return self._delivered
