"""Exactly-once delivery accounting (the specification SP as executable
checks).

The ledger observes two event streams — generations (rule R1) and deliveries
(rule R6, or a baseline's consumption) — and enforces the specification:

* a *valid* message (positive uid) must be delivered at its destination,
  and at most once; a second delivery or a delivery elsewhere raises
  :class:`~repro.errors.SpecificationViolation` (or is recorded, in
  non-strict mode, for protocols *expected* to violate — the baselines);
* *invalid* messages (negative uid) may be delivered up to the paper's
  Proposition-4 budget; the ledger counts them per destination.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.errors import SpecificationViolation
from repro.statemodel.message import Message
from repro.statemodel.snapshot import StateVector
from repro.types import DestId, ProcId

#: Lifecycle observer: called as ``observer(kind, uid, info)`` with kind in
#: {"generated", "delivered", "lost"}.  The message-lifecycle tracer of
#: :mod:`repro.obs` subscribes here.
LedgerObserver = Callable[[str, int, Dict[str, Any]], None]


@dataclass(frozen=True)
class DeliveryRecord:
    """One delivery event."""

    uid: int
    at: ProcId
    step: int
    payload: object
    valid: bool


class DeliveryLedger:
    """Tracks generations and deliveries; enforces exactly-once for valid
    messages.

    Parameters
    ----------
    strict:
        When True (default) a violation raises immediately; when False it is
        appended to :attr:`violations` — used when measuring how badly a
        non-stabilizing baseline misbehaves.
    """

    def __init__(self, strict: bool = True) -> None:
        self._strict = strict
        self._generated: Dict[int, Tuple[ProcId, DestId, int]] = {}
        self._valid_delivered: Dict[int, DeliveryRecord] = {}
        self._invalid_deliveries: List[DeliveryRecord] = []
        self._lost: Set[int] = set()
        #: Generated valid uids not delivered yet, kept by every intake.
        self._outstanding: Set[int] = set()
        #: Violations observed in non-strict mode, human-readable.
        self.violations: List[str] = []
        self._observers: List[LedgerObserver] = []
        #: The vector last restored to, while the state still equals it —
        #: every event intake drops it (``statemodel/snapshot.py``).
        self._anchor: Optional[StateVector] = None

    def add_observer(self, observer: LedgerObserver) -> None:
        """Subscribe to the lifecycle event stream (generated / delivered /
        lost).  Observers are called after the ledger's own bookkeeping;
        with none installed the intake paths pay a single truthiness
        check."""
        self._observers.append(observer)

    def _emit(self, kind: str, uid: int, info: Dict[str, Any]) -> None:
        for observer in self._observers:
            observer(kind, uid, info)

    # -- event intake ----------------------------------------------------------

    def record_generated(self, msg: Message) -> None:
        """Register a valid message at its R1 generation."""
        if not msg.valid or msg.source is None:
            raise ValueError(f"record_generated expects a valid message, got {msg!r}")
        self._anchor = None
        self._generated[msg.uid] = (msg.source, msg.dest, msg.born_step)
        if msg.uid not in self._valid_delivered:
            self._outstanding.add(msg.uid)
        if self._observers:
            self._emit(
                "generated", msg.uid,
                {"source": msg.source, "dest": msg.dest, "step": msg.born_step},
            )

    def record_delivery(self, at: ProcId, msg: Message, step: int) -> None:
        """Register a delivery; checks the specification for valid uids."""
        self._anchor = None
        rec = DeliveryRecord(
            uid=msg.uid, at=at, step=step, payload=msg.payload, valid=msg.valid
        )
        if not msg.valid:
            self._invalid_deliveries.append(rec)
            if self._observers:
                self._emit(
                    "delivered", msg.uid, {"at": at, "step": step, "valid": False}
                )
            return
        problems: List[str] = []
        known = self._generated.get(msg.uid)
        if known is None:
            problems.append(f"delivery of unknown valid uid {msg.uid}")
        else:
            _, dest, _ = known
            if at != dest:
                problems.append(
                    f"uid {msg.uid} delivered at {at}, destination is {dest}"
                )
        if msg.uid in self._valid_delivered:
            problems.append(f"uid {msg.uid} delivered twice (duplication)")
        if problems:
            self._flag("; ".join(problems))
        if msg.uid not in self._valid_delivered:
            self._valid_delivered[msg.uid] = rec
            self._outstanding.discard(msg.uid)
        if self._observers:
            self._emit("delivered", msg.uid, {"at": at, "step": step, "valid": True})

    def record_loss(self, msg: Message, reason: str) -> None:
        """Register that a protocol erased the last copy of a valid message
        without delivering it (baselines do this; SSMFP must never)."""
        if msg.valid:
            self._anchor = None
            self._lost.add(msg.uid)
            if self._observers:
                self._emit("lost", msg.uid, {"reason": reason})
            self._flag(f"valid uid {msg.uid} lost: {reason}")

    def _flag(self, text: str) -> None:
        if self._strict:
            raise SpecificationViolation(text)
        self._anchor = None
        self.violations.append(text)

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> StateVector:
        """State vector: generations (insertion order preserved), valid
        deliveries, invalid deliveries, losses and non-strict violations.
        Observers and the strictness flag are wiring, not state.  While no
        event has been taken in since the last :meth:`restore` the anchor
        itself comes back."""
        if self._anchor is not None:
            return self._anchor
        return (
            tuple(self._generated.items()),
            tuple(self._valid_delivered.items()),
            tuple(self._invalid_deliveries),
            tuple(sorted(self._lost)),
            tuple(self.violations),
        )

    def restore(self, vec: StateVector) -> None:
        """Reinstate a previously captured :meth:`snapshot`: nothing to do
        for the anchor, five containers rebuilt for any other vector."""
        if vec is self._anchor:
            return
        generated, delivered, invalid, lost, violations = vec
        self._generated = dict(generated)
        self._valid_delivered = dict(delivered)
        self._invalid_deliveries = list(invalid)
        self._lost = set(lost)
        self.violations = list(violations)
        self._outstanding = set(self._generated).difference(self._valid_delivered)
        self._anchor = vec

    # -- queries ------------------------------------------------------------

    @property
    def generated_count(self) -> int:
        """Valid messages generated so far."""
        return len(self._generated)

    @property
    def valid_delivered_count(self) -> int:
        """Distinct valid uids delivered."""
        return len(self._valid_delivered)

    @property
    def invalid_delivery_count(self) -> int:
        """Total deliveries of invalid messages."""
        return len(self._invalid_deliveries)

    def invalid_deliveries_by_destination(self) -> Dict[ProcId, int]:
        """Histogram destination -> invalid deliveries (Proposition 4 is a
        per-destination 2n bound)."""
        hist: Dict[ProcId, int] = {}
        for rec in self._invalid_deliveries:
            hist[rec.at] = hist.get(rec.at, 0) + 1
        return hist

    def outstanding_uids(self) -> Set[int]:
        """Valid uids generated but not yet delivered."""
        return set(self._outstanding)

    def generated_uids(self) -> List[int]:
        """Every generated valid uid, ascending.  Uids need not be
        contiguous (factories can be shared across simulations, and a
        non-strict ledger may know deliveries it never saw generated)."""
        return sorted(self._generated)

    def delivered_uids(self) -> List[int]:
        """Valid uids both generated and delivered, ascending — the
        denominator of every latency metric.  Deliveries of uids the
        ledger never saw generated (possible only in non-strict mode, and
        always flagged as violations) are excluded: they have no
        generation stamp to measure from."""
        return sorted(uid for uid in self._valid_delivered if uid in self._generated)

    def all_valid_delivered(self) -> bool:
        """True iff every generated message has been delivered."""
        return not self._outstanding

    def generation_info(self, uid: int) -> Optional[Tuple[ProcId, DestId, int]]:
        """(source, dest, born_step) for a generated uid."""
        return self._generated.get(uid)

    def delivery_record(self, uid: int) -> Optional[DeliveryRecord]:
        """The delivery record of a valid uid, if delivered."""
        return self._valid_delivered.get(uid)

    def latency_steps(self, uid: int) -> Optional[int]:
        """Steps from generation to delivery for a valid uid."""
        gen = self._generated.get(uid)
        rec = self._valid_delivered.get(uid)
        if gen is None or rec is None:
            return None
        return rec.step - gen[2]

    @property
    def lost_count(self) -> int:
        """Valid messages whose last copy was erased undelivered."""
        return len(self._lost)
