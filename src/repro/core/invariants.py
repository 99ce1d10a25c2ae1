"""Machine-checked safety invariants (Lemmas 4 & 5 as runtime checks).

:class:`InvariantChecker` scans a
:class:`~repro.core.family.ForwardingProtocol` instance (any family
member — the checks read only the shared buffer/ledger substrate) and
raises :class:`~repro.errors.InvariantViolation` when a
configuration the proofs forbid is reached.  Installed as a per-step strict
hook in the core tests, it turns every simulated execution into thousands of
checked theorems.

The checks (and their preconditions) are:

* **well-formedness** — every stored message has a color in ``{0..Δ}``, a
  ``last`` field in ``N_p ∪ {p}``, and a ``dest`` tag equal to its
  component's destination;
* **no loss** (Lemma 4) — every generated-but-undelivered valid uid has at
  least one stored copy;
* **no duplication** (Lemma 5) — a delivered valid uid has zero stored
  copies (nothing left to deliver again), and the ledger holds at most one
  delivery for it;
* **copy geometry** — all stored copies of a valid uid live in its own
  destination component.

Preconditions for the no-loss/no-duplication checks: the routing protocol
runs with priority (the paper's assumption) and the workload contains no
self-addressed messages (see :mod:`repro.app.higher_layer`).  The
well-formedness checks hold unconditionally.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.core.family import ForwardingProtocol
from repro.errors import InvariantViolation
from repro.types import ProcId

#: Where the stored copies of each valid uid sit: ``{uid: [(d, p, kind)]}``.
Locations = Dict[int, List[Tuple[int, ProcId, str]]]


class InvariantChecker:
    """Scans a forwarding-protocol instance for violations of the paper's
    lemmas."""

    def __init__(self, proto: ForwardingProtocol) -> None:
        self._proto = proto

    def check(self) -> None:
        """Run all checks, in the order listed above, over one walk of the
        buffers; raises :class:`InvariantViolation` on failure."""
        locations = self._walk(well_formed=True)
        self._no_loss(locations)
        self._no_duplication(locations)
        self._copy_geometry(locations)

    # One walk, three readers -------------------------------------------------

    def _walk(self, well_formed: bool) -> Locations:
        """The locations of every stored valid copy by uid, in buffer
        order; with ``well_formed`` each stored message is checked on the
        way.  The buffers' state vector is that order, and right after a
        verifier restore it is the anchor — nothing to sort."""
        proto = self._proto
        delta = proto.delta
        neighbors = proto.net.neighbors
        locations: Locations = {}
        for d, p, kind, msg in proto.bufs.snapshot():
            if well_formed:
                if not (0 <= msg.color <= delta):
                    raise InvariantViolation(
                        f"buf{kind}_{p}({d}) holds color {msg.color} outside 0..{delta}"
                    )
                if msg.last != p and msg.last not in neighbors(p):
                    raise InvariantViolation(
                        f"buf{kind}_{p}({d}) holds last={msg.last}, "
                        f"not in N_{p} ∪ {{{p}}}"
                    )
                if msg.dest != d:
                    raise InvariantViolation(
                        f"buf{kind}_{p}({d}) holds a message tagged dest={msg.dest}"
                    )
            if msg.valid:
                locations.setdefault(msg.uid, []).append((d, p, kind))
        return locations

    def _no_loss(self, locations: Locations) -> None:
        missing = self._proto.ledger.outstanding_uids().difference(locations)
        if missing:
            raise InvariantViolation(
                f"valid messages lost (no stored copy, never delivered): "
                f"uids {sorted(missing)}"
            )

    def _no_duplication(self, locations: Locations) -> None:
        ledger = self._proto.ledger
        for uid, locs in locations.items():
            if ledger.delivery_record(uid) is not None:
                raise InvariantViolation(
                    f"valid uid {uid} was delivered but copies remain at {locs}"
                )

    def _copy_geometry(self, locations: Locations) -> None:
        ledger = self._proto.ledger
        for uid, locs in locations.items():
            info = ledger.generation_info(uid)
            if info is None:
                raise InvariantViolation(
                    f"stored valid uid {uid} was never recorded as generated"
                )
            _, dest, _ = info
            wrong = [loc for loc in locs if loc[0] != dest]
            if wrong:
                raise InvariantViolation(
                    f"valid uid {uid} (dest {dest}) has copies in foreign "
                    f"components: {wrong}"
                )
