"""The routing interface consumed by forwarding protocols.

SSMFP reads routing information only through ``nextHop_p(d)`` (the paper's
procedure of the same name).  Any routing provider — static tables, the
self-stabilizing BFS protocol, or a test double — implements
:class:`RoutingService`.

Change observation
------------------
Consumers cache ``next_hop`` values and enabled-action sets, so they must
learn when a table entry moves.  Reporting every mutation is therefore part
of the :class:`RoutingService` contract, not an opt-in: consumers register
a callback with :meth:`add_observer`, and a provider that rewrites an entry
**must** call :meth:`_notify_entry` for it — a bulk rewrite for every
entry it moves — before the next guard evaluation.  Immutable tables
satisfy this vacuously.  A provider that mutates silently leaves stale caches behind —
``tests/test_engine_equivalence.py`` shows the divergence being caught.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable, List

from repro.types import DestId, ProcId

#: Observer callback: ``(p, d)`` for a rewritten entry ``nextHop_p(d)``.
RoutingObserver = Callable[[ProcId, DestId], None]


class RoutingService(ABC):
    """Source of ``nextHop_p(d)`` values.

    The contract matching the paper's model:

    * for ``p != d``, :meth:`next_hop` returns a *neighbor* of ``p`` (the
      value may be wrong while tables are corrupted, but it is always
      domain-valid — the usual state-model convention that variables hold
      type-correct garbage);
    * for ``p == d`` the value is unused by the forwarding rules (R4 guards
      on ``p != d``); providers return ``p`` itself by convention;
    * every mutation of the tables is reported to the registered observers
      (:meth:`_notify_entry`).
    """

    @abstractmethod
    def next_hop(self, p: ProcId, d: DestId) -> ProcId:
        """The neighbor ``p`` currently believes leads toward ``d``."""

    @abstractmethod
    def is_correct(self) -> bool:
        """True iff every table entry lies on a *minimal* path (ground
        truth); used by analysis and halting predicates, never by the
        protocols themselves."""

    # -- change observation (storage is lazy so subclasses need not call
    # -- super().__init__) ---------------------------------------------------

    def add_observer(self, observer: RoutingObserver) -> None:
        """Register a table-change observer."""
        observers: List[RoutingObserver]
        observers = getattr(self, "_routing_observers", None)  # type: ignore[assignment]
        if observers is None:
            observers = []
            setattr(self, "_routing_observers", observers)
        observers.append(observer)

    def _notify_entry(self, p: ProcId, d: DestId) -> None:
        """Report that ``nextHop_p(d)`` changed."""
        for observer in getattr(self, "_routing_observers", ()):
            observer(p, d)
