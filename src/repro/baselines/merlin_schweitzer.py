"""The classical destination-based forwarding scheme (Merlin & Schweitzer).

This is the literature solution the paper's §3.1 describes for *correct*
routing tables: one buffer ``b_p(d)`` per (processor, destination), messages
follow the tree ``T_d``, and message identity is the concatenation of the
source identity and a **two-value flag** alternated per (source,
destination) — enough to distinguish consecutive identical messages *when
all messages follow the same fixed path*.

The protocol exists in two hosted semantics (``atomic_moves``):

* ``atomic_moves=True`` (default) — forwarding is the abstract network move
  of the paper's §2.2: one action copies ``b_p(d)`` into the empty buffer of
  ``nextHop_p(d)`` *and simultaneously empties* ``b_p(d)``.  This is the
  scheme in its native network-move model: with correct tables it is
  deadlock-free and exactly-once, and strictly cheaper than SSMFP (one
  buffer and one move per hop).  Used by the overhead comparison (T2).

* ``atomic_moves=False`` — the naive port to the locally shared memory
  model, where a cross-processor move necessarily splits into a copy (rule
  ``BF``) and a later erasure (rule ``BE`` guarded by an identity match at
  the next hop).  The (source, flag) identity cannot sequence the 3-way
  handshake (the receiver may forward, or the next hop may be re-polled,
  before the sender erases), so the scheme **duplicates** messages — and
  under moving tables also **loses** them when ``BE`` matches a stale
  same-flag copy.  This is precisely the gap SSMFP's two buffers, last-hop
  field and Δ+1 colors close; the comparison experiment (T1) measures it.

Modeling note: in both semantics the transmission writes the *receiver's*
buffer (the scheme is a network-move protocol, not a shared-memory one);
if the target got occupied by a concurrent same-step move, the write aborts
harmlessly (per-buffer arbitration) — in atomic mode the source then keeps
the message.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional

from repro.app.higher_layer import HigherLayer
from repro.core.ledger import DeliveryLedger
from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.statemodel.action import Action
from repro.statemodel.message import Message
from repro.statemodel.protocol import Protocol
from repro.types import DestId, ProcId


@dataclass(frozen=True)
class FlaggedMessage:
    """A stored baseline message: payload + (source, flag) identifier plus
    the hidden tracking uid (copies preserve it)."""

    payload: Any
    source: ProcId
    flag: int  # the two-value flag: 0 or 1
    dest: DestId
    uid: int
    valid: bool

    def same_identity(self, other: "FlaggedMessage") -> bool:
        """The scheme's message identity: payload, source and flag."""
        return (
            self.payload == other.payload
            and self.source == other.source
            and self.flag == other.flag
        )

    def as_message(self) -> Message:
        """Bridge to the :class:`~repro.statemodel.Message` shape the ledger
        and higher layer expect."""
        return Message(
            payload=self.payload,
            last=self.source,
            color=self.flag,
            dest=self.dest,
            uid=self.uid,
            valid=self.valid,
            source=self.source if self.valid else None,
        )


class MerlinSchweitzerForwarding(Protocol):
    """The fault-free baseline protocol (see module docstring)."""

    name = "MS"

    def __init__(
        self,
        net: Network,
        routing: RoutingService,
        higher_layer: HigherLayer,
        ledger: Optional[DeliveryLedger] = None,
        *,
        atomic_moves: bool = True,
    ) -> None:
        self.net = net
        self.routing = routing
        self.hl = higher_layer
        # The baseline is *expected* to violate SP in split-move mode; use a
        # non-strict ledger so violations are recorded, not raised.
        self.ledger = ledger if ledger is not None else DeliveryLedger(strict=False)
        self.atomic_moves = atomic_moves
        n = net.n
        #: ``buf[d][p]`` — the single buffer of p for destination d.
        self.buf: List[List[Optional[FlaggedMessage]]] = [
            [None] * n for _ in range(n)
        ]
        #: Next two-value flag per (source, destination).
        self._next_flag: List[List[int]] = [[0] * n for _ in range(n)]
        self._next_uid = 1
        self.current_step = 0

    # -- environment ------------------------------------------------------------

    def before_step(self, step: int) -> None:
        self.current_step = step
        self.hl.before_step(step)

    # -- rules ------------------------------------------------------------------

    def enabled_actions(self, pid: ProcId) -> List[Action]:
        actions: List[Action] = []
        n = self.net.n
        hl = self.hl
        name = self.name
        request_dest = hl.next_destination(pid) if hl.request[pid] else None

        for d in range(n):
            stored = self.buf[d][pid]

            # BG: generation.
            if d == request_dest and stored is None:
                actions.append(Action(pid, "BG", name, d, self._generate, (
                    pid, d, hl.next_message(pid), self._next_flag[d][pid])))

            if stored is None:
                continue

            # BC: consumption at the destination.
            if pid == d:
                actions.append(Action(pid, "BC", name, d, self._consume,
                                      (pid, d, stored, self.current_step)))
                continue

            nh = self.routing.next_hop(pid, d)
            target = self.buf[d][nh]
            if target is None:
                # BF: transmission into the empty next-hop buffer (atomic:
                # move; split: copy only).
                actions.append(Action(pid, "BF", name, d, self._forward,
                                      (pid, d, stored, nh)))
            elif not self.atomic_moves and target.same_identity(stored):
                # BE (split mode only): erase once the next hop holds a
                # matching identity.
                actions.append(Action(pid, "BE", name, d, self._erase,
                                      (pid, d, stored, nh, target)))
        return actions

    # Effects, called with the values their guard bound; ``describe`` is
    # what ``Action.info`` reports beyond ``dest``.

    def _generate(self, p: ProcId, d: DestId, payload: Any, flag: int) -> None:
        # Per-buffer arbitration: a concurrent same-step move may have
        # filled the buffer; abort and retry (request stays up).
        if self.buf[d][p] is not None:
            return
        uid = self._next_uid
        self._next_uid += 1
        msg = FlaggedMessage(payload, p, flag, d, uid, True)
        self.buf[d][p] = msg
        self._next_flag[d][p] ^= 1
        self.hl.consume_request(p)
        self.ledger.record_generated(msg.as_message())

    _generate.describe = lambda p, d, payload, flag: {"payload": payload, "flag": flag}

    def _forward(self, p: ProcId, d: DestId, msg: FlaggedMessage, nh: ProcId) -> None:
        # Per-buffer arbitration: abort if a concurrent move of this same
        # step filled the target; in atomic mode the source then keeps the
        # message.
        if self.buf[d][nh] is not None:
            return
        self.buf[d][nh] = msg
        if self.atomic_moves:
            self.buf[d][p] = None

    _forward.describe = lambda p, d, msg, nh: {"uid": msg.uid, "to": nh}

    def _erase(
        self,
        p: ProcId,
        d: DestId,
        msg: FlaggedMessage,
        nh: ProcId,
        target: FlaggedMessage,
    ) -> None:
        # The scheme believes `target` is its own copy.  If the hidden
        # uids differ, the erase destroys a message that was never
        # transmitted — the loss mode moving tables induce.
        if msg.valid and target.uid != msg.uid:
            if self._copies_of(msg.uid) == 1:
                self.ledger.record_loss(
                    msg.as_message(),
                    f"BE matched a stale same-flag copy at {nh}",
                )
        self.buf[d][p] = None

    _erase.describe = lambda p, d, msg, nh, target: {
        "uid": msg.uid, "matched_uid": target.uid}

    def _consume(self, p: ProcId, d: DestId, msg: FlaggedMessage, step: int) -> None:
        self.buf[d][p] = None
        self.hl.deliver(p, msg.as_message(), step)
        self.ledger.record_delivery(p, msg.as_message(), step)

    _consume.describe = lambda p, d, msg, step: {"uid": msg.uid, "payload": msg.payload}

    # -- introspection -----------------------------------------------------------

    def _copies_of(self, uid: int) -> int:
        return sum(
            1
            for row in self.buf
            for m in row
            if m is not None and m.uid == uid
        )
