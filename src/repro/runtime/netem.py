"""Network emulation: a fault-injecting transport decorator.

:class:`NetemTransport` wraps any :class:`~repro.runtime.transport.Transport`
and perturbs its ``send`` path with seeded faults — the live-runtime
counterpart of the state model's adversarial daemon:

Faults are drawn **per record**, not per frame: batching many DATA/ACK
records into one frame must not weaken the adversary, so every record in
a batch gets its own independent loss/dup/reorder/latency draws.  The
records that survive with no delay are re-batched and forwarded in one
``base.send``.  A delayed record is **held**: one entry ``(due, send
order, src, dst, record)`` on the transport's single deadline heap, with
one ``loop.call_at`` timer armed on the earliest deadline — never a Task
or a timer of its own.  When the timer fires, everything due is popped
and re-batched **per directed edge, in (due, send order) order**, into
frames of at most ``max_batch`` records (the node's own flush bound), so
a receiver sees each edge's held records in deadline order — which is
exactly how a record reorders against the rest of its batch — and records
of different edges never share a frame.

* **latency** — each record is delayed by a uniform draw from
  ``latency=(lo, hi)`` seconds; unequal delays reorder records naturally;
* **loss** — a record is dropped with probability ``loss``;
* **duplication** — with probability ``dup`` a record is delivered twice,
  each copy with an independent delay;
* **reordering** — with probability ``reorder`` a record is additionally
  held for ``reorder_extra`` seconds, pushing it behind later traffic.

These per-record knobs are the whole configuration — the live
counterpart of the message-passing engine's ``ChannelFaults``.  Edge
state is not a knob: only :meth:`NetemTransport.force_down` / ``force_up``
change it (records on a down edge are dropped), and only a scenario
schedule's ``link_flap`` / ``partition`` events call them.

All randomness comes from one ``random.Random(seed)``, so a scenario is
reproducible up to asyncio scheduling.  The hop protocol of
:mod:`repro.runtime.node` must deliver exactly once *despite* all of the
above — that is precisely what the conformance harness checks.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import random
import time
from dataclasses import dataclass, fields
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, check_fraction
from repro.runtime.transport import Transport
from repro.types import Edge, ProcId, normalized_edge

@dataclass(frozen=True)
class NetemConfig:
    """Fault-injection knobs (all off by default)."""

    loss: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    latency: Tuple[float, float] = (0.0, 0.0)
    reorder_extra: float = 0.01

    def is_noop(self) -> bool:
        """True iff this configuration perturbs nothing."""
        return (
            self.loss == 0.0
            and self.dup == 0.0
            and self.reorder == 0.0
            and self.latency == (0.0, 0.0)
        )

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "NetemConfig":
        """Build from a plain dict (CLI / JSON spec form) — the one
        validator of netem knobs, for the static ``[runtime] netem``
        section, the ``repro runtime`` flags and schedule ``netem`` events
        alike, all with the same :data:`NETEM_KEYS`; every failure is a
        :class:`ConfigurationError` naming the key.

        Unknown keys are rejected: netem specs configure an *adversary*,
        and a misspelled knob that silently does nothing would make a
        chaos run vacuously green.
        """
        unknown = sorted(set(spec) - set(NETEM_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown netem key(s) {unknown}; "
                f"valid keys: {sorted(NETEM_KEYS)}"
            )
        kwargs: Dict[str, Any] = {}
        for key in ("loss", "dup", "reorder"):
            if key in spec:
                kwargs[key] = check_fraction(f"netem {key}", spec[key])
        if "reorder_extra" in spec:
            kwargs["reorder_extra"] = _seconds("reorder_extra", spec["reorder_extra"])
        if "latency" in spec:
            try:
                lo, hi = spec["latency"]
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"netem latency must be a [lo, hi] pair of seconds, "
                    f"got {spec['latency']!r}"
                ) from None
            lo, hi = _seconds("latency", lo), _seconds("latency", hi)
            if lo > hi:
                raise ConfigurationError(
                    f"netem latency must satisfy lo <= hi, got [{lo}, {hi}]"
                )
            kwargs["latency"] = (lo, hi)
        return cls(**kwargs)


#: Every key :meth:`NetemConfig.from_spec` understands — the config's own
#: fields — and so every key a schedule ``netem`` event may set.  Anything
#: else is rejected, so a typo ("los") cannot silently become a no-op run.
NETEM_KEYS = tuple(f.name for f in fields(NetemConfig))


def _seconds(key: str, value: Any) -> float:
    """A finite, non-negative duration knob."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"netem {key} must be a number, got {value!r}"
        ) from None
    if not 0.0 <= seconds < math.inf:
        raise ConfigurationError(f"netem {key} must be >= 0, got {seconds}")
    return seconds


class NetemTransport(Transport):
    """Decorates a transport with seeded fault injection.

    The decorator shares the wrapped transport's network and inbox
    registry, so nodes bind to the *decorator* and never see the base.
    """

    def __init__(
        self,
        base: Transport,
        config: NetemConfig,
        seed: int = 0,
        max_batch: int = 64,
    ) -> None:
        super().__init__(base.net)
        self.base = base
        self.config = config
        #: Records per re-batched frame of held records — the hosting
        #: nodes' own flush bound, so the hold never builds a larger frame
        #: than a node would.
        self.max_batch = max_batch
        self._rng = random.Random(seed)
        #: Edges taken down by :meth:`force_down` and not yet brought up.
        self._down: Set[Edge] = set()
        #: The hold: ``(due, send order, src, dst, record)`` on one heap.
        #: The counter breaks ties — records are dicts, never compared.
        self._held: List[Tuple[float, int, ProcId, ProcId, Dict[str, Any]]] = []
        self._send_order = itertools.count()
        #: The one armed timer (on ``_held[0]``'s deadline) and the one
        #: task shipping what a wake-up found due.
        self._timer: Optional["asyncio.TimerHandle"] = None
        self._shipper: Optional["asyncio.Task"] = None
        self._closing = False
        #: Fault accounting, exported next to the base transport's stats.
        self.fault_stats: Dict[str, int] = {
            "netem_dropped": 0,
            "netem_duplicated": 0,
            "netem_reordered": 0,
            "netem_flaps": 0,
        }
        #: Timeline of discrete fault transitions (forced edge state,
        #: reconfigurations) — mono+wall stamped so the obs layer
        #: can correlate them with message-latency spikes.
        self.fault_events: List[Dict[str, Any]] = []

    def _log_fault(self, action: str, **detail: Any) -> None:
        self.fault_events.append(
            {"mono": time.monotonic(), "t": time.time(), "action": action, **detail}
        )

    # -- live chaos hooks ----------------------------------------------------

    def force_down(self, u: ProcId, v: ProcId) -> None:
        """Take one undirected edge down until :meth:`force_up` — the
        scenario driver's partition/flap primitive."""
        edge = normalized_edge(u, v)
        if edge not in self._down:
            self._down.add(edge)
            self.fault_stats["netem_flaps"] += 1
            self._log_fault("link_down", edge=list(edge))

    def force_up(self, u: ProcId, v: ProcId) -> None:
        """Bring a forced-down edge back."""
        edge = normalized_edge(u, v)
        if edge in self._down:
            self._down.discard(edge)
            self._log_fault("link_up", edge=list(edge))

    def reconfigure(self, config: NetemConfig) -> None:
        """Swap the fault knobs mid-run (scenario ``netem`` action).

        Loss/dup/reorder/latency draws pick up the new values on the next
        record; edge state is left alone.
        """
        self.config = config
        self._log_fault(
            "netem_change",
            loss=config.loss,
            dup=config.dup,
            reorder=config.reorder,
            latency=list(config.latency),
        )

    # Nodes bind to the decorator; forward inboxes to the base so its
    # receive path (TCP servers) can still dispatch.
    def bind(self, pid: ProcId, inbox) -> None:  # type: ignore[override]
        super().bind(pid, inbox)
        self.base.bind(pid, inbox)

    async def start(self) -> None:
        await self.base.start()

    async def close(self) -> None:
        """Cancel the timer and drop the hold: held records are lost."""
        self._closing = True
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        self._held.clear()
        if self._shipper is not None:
            self._shipper.cancel()
            try:
                await self._shipper
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        await self.base.close()

    def held(self) -> int:
        """Records currently held by the adversary (delayed, not yet due)."""
        return len(self._held)

    # -- fault pipeline ------------------------------------------------------

    async def send(
        self, src: ProcId, dst: ProcId, records: Sequence[Dict[str, Any]]
    ) -> None:
        self._check_edge(src, dst)
        cfg = self.config
        rng = self._rng
        if normalized_edge(src, dst) in self._down:
            self.fault_stats["netem_dropped"] += len(records)
            return
        # Per-record fault draws: the batch is torn apart, each record
        # faulted independently, the undelayed survivors re-batched and the
        # delayed ones pushed on the hold.
        now_batch: List[Dict[str, Any]] = []
        held = self._held
        order = self._send_order
        now = asyncio.get_running_loop().time()  # once per call
        pushed = False
        for rec in records:
            if cfg.loss and rng.random() < cfg.loss:
                self.fault_stats["netem_dropped"] += 1
                continue
            copies = 1
            if cfg.dup and rng.random() < cfg.dup:
                copies = 2
                self.fault_stats["netem_duplicated"] += 1
            for _ in range(copies):
                delay = (
                    rng.uniform(*cfg.latency)
                    if cfg.latency != (0.0, 0.0)
                    else 0.0
                )
                if cfg.reorder and rng.random() < cfg.reorder:
                    delay += cfg.reorder_extra
                    self.fault_stats["netem_reordered"] += 1
                if delay <= 0.0:
                    now_batch.append(rec)
                else:
                    heappush(held, (now + delay, next(order), src, dst, rec))
                    pushed = True
        if pushed:
            self._arm()
        if now_batch:
            await self.base.send(src, dst, now_batch)

    def _arm(self) -> None:
        """Keep the one timer on the earliest deadline, re-armed only when
        a new entry is earlier than what it is armed on.  A running shipper
        re-arms on its way out instead; a closing transport never does."""
        if self._shipper is not None or self._closing or not self._held:
            return
        due = self._held[0][0]
        timer = self._timer
        if timer is not None:
            if timer.when() <= due:
                return
            timer.cancel()
        self._timer = asyncio.get_running_loop().call_at(due, self._wake, due)

    def _wake(self, due: float) -> None:
        self._timer = None
        self._shipper = asyncio.get_running_loop().create_task(self._ship(due))

    async def _ship(self, due: float) -> None:
        """Pop everything due, group it by directed edge in due order, and
        hand each group to the base transport in ``max_batch`` frames."""
        held = self._held
        max_batch = self.max_batch
        # The timer may fire a clock resolution early: what it was armed
        # on is due by definition.
        limit = max(due, asyncio.get_running_loop().time())
        groups: Dict[Tuple[ProcId, ProcId], List[Dict[str, Any]]] = {}
        while held and held[0][0] <= limit:
            _, _, src, dst, rec = heappop(held)
            groups.setdefault((src, dst), []).append(rec)
        try:
            for (src, dst), recs in groups.items():
                for i in range(0, len(recs), max_batch):
                    await self.base.send(src, dst, recs[i : i + max_batch])
        finally:
            self._shipper = None
            self._arm()
