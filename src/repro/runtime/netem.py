"""Network emulation: a fault-injecting transport decorator.

:class:`NetemTransport` wraps any :class:`~repro.runtime.transport.Transport`
and perturbs its ``send`` path with seeded faults — the live-runtime
counterpart of the state model's adversarial daemon:

Faults are drawn **per record**, not per frame: batching many DATA/ACK
records into one frame must not weaken the adversary, so every record in
a batch gets its own independent loss/dup/reorder/latency draws.  The
records that survive with no delay are re-batched and forwarded in one
``base.send``; each delayed record travels as its own single-record frame
(which is exactly how it reorders against the rest of the batch).

* **latency** — each record is delayed by a uniform draw from
  ``latency=(lo, hi)`` seconds; unequal delays reorder records naturally;
* **loss** — a record is dropped with probability ``loss``;
* **duplication** — with probability ``dup`` a record is delivered twice,
  each copy with an independent delay;
* **reordering** — with probability ``reorder`` a record is additionally
  held for ``reorder_extra`` seconds, pushing it behind later traffic;
* **link flaps** — every ``flap_period`` seconds one random edge goes down
  for ``flap_down`` seconds (records on a down edge are dropped);
* **partitions** — ``blocked_edges`` silences a static set of undirected
  edges for the whole run.

All randomness comes from one ``random.Random(seed)``, so a scenario is
reproducible up to asyncio scheduling.  The hop protocol of
:mod:`repro.runtime.node` must deliver exactly once *despite* all of the
above — that is precisely what the conformance harness checks.
"""

from __future__ import annotations

import asyncio
import random
import time
from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError
from repro.runtime.transport import Transport
from repro.types import Edge, ProcId, normalized_edge

#: Every key :meth:`NetemConfig.from_spec` understands — anything else in a
#: spec is rejected, so a typo ("los") cannot silently become a no-op run.
NETEM_SPEC_KEYS = (
    "loss",
    "dup",
    "reorder",
    "reorder_extra",
    "latency",
    "flap_period",
    "flap_down",
    "blocked_edges",
)


@dataclass(frozen=True)
class NetemConfig:
    """Fault-injection knobs (all off by default)."""

    loss: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0
    latency: Tuple[float, float] = (0.0, 0.0)
    reorder_extra: float = 0.01
    flap_period: Optional[float] = None
    flap_down: float = 0.05
    blocked_edges: FrozenSet[Edge] = field(default_factory=frozenset)

    def is_noop(self) -> bool:
        """True iff this configuration perturbs nothing."""
        return (
            self.loss == 0.0
            and self.dup == 0.0
            and self.reorder == 0.0
            and self.latency == (0.0, 0.0)
            and self.flap_period is None
            and not self.blocked_edges
        )

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "NetemConfig":
        """Build from a plain dict (CLI / JSON spec form).

        Unknown keys are rejected: netem specs configure an *adversary*,
        and a misspelled knob that silently does nothing would make a
        chaos run vacuously green.
        """
        unknown = sorted(set(spec) - set(NETEM_SPEC_KEYS))
        if unknown:
            raise ConfigurationError(
                f"unknown netem key(s) {unknown}; "
                f"valid keys: {sorted(NETEM_SPEC_KEYS)}"
            )
        kwargs: Dict[str, Any] = {}
        for key in ("loss", "dup", "reorder", "reorder_extra", "flap_down"):
            if key in spec:
                kwargs[key] = float(spec[key])
        if "latency" in spec:
            lo, hi = spec["latency"]
            kwargs["latency"] = (float(lo), float(hi))
        if spec.get("flap_period") is not None:
            kwargs["flap_period"] = float(spec["flap_period"])
        if "blocked_edges" in spec:
            kwargs["blocked_edges"] = frozenset(
                normalized_edge(int(u), int(v)) for u, v in spec["blocked_edges"]
            )
        return cls(**kwargs)


class NetemTransport(Transport):
    """Decorates a transport with seeded fault injection.

    The decorator shares the wrapped transport's network and inbox
    registry, so nodes bind to the *decorator* and never see the base.
    """

    def __init__(self, base: Transport, config: NetemConfig, seed: int = 0) -> None:
        super().__init__(base.net)
        self.base = base
        self.config = config
        self._rng = random.Random(seed)
        self._down: Set[Edge] = set(config.blocked_edges)
        self._pending: Set["asyncio.Task"] = set()
        self._flap_task: Optional["asyncio.Task"] = None
        self._closing = False
        #: Fault accounting, exported next to the base transport's stats.
        self.fault_stats: Dict[str, int] = {
            "netem_dropped": 0,
            "netem_duplicated": 0,
            "netem_reordered": 0,
            "netem_flaps": 0,
        }
        #: Timeline of discrete fault transitions (flaps, forced edge
        #: state, reconfigurations) — mono+wall stamped so the obs layer
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
        """Bring a forced-down edge back (statically blocked edges stay
        down: the config is the floor, chaos only adds on top)."""
        edge = normalized_edge(u, v)
        if edge in self.config.blocked_edges:
            return
        if edge in self._down:
            self._down.discard(edge)
            self._log_fault("link_up", edge=list(edge))

    def reconfigure(self, config: NetemConfig) -> None:
        """Swap the fault knobs mid-run (scenario ``netem`` action).

        Loss/dup/reorder/latency draws pick up the new values on the next
        record; the periodic flap task re-reads ``self.config`` each cycle.
        Statically blocked edges of the old/new configs are re-based while
        chaos-forced edges are left alone.
        """
        old = self.config
        self.config = config
        for edge in old.blocked_edges - config.blocked_edges:
            self._down.discard(edge)
        for edge in config.blocked_edges - old.blocked_edges:
            self._down.add(edge)
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
        if self.config.flap_period is not None:
            self._flap_task = asyncio.get_running_loop().create_task(self._flap())

    async def close(self) -> None:
        self._closing = True
        if self._flap_task is not None:
            self._flap_task.cancel()
            try:
                await self._flap_task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        for task in list(self._pending):
            task.cancel()
        for task in list(self._pending):
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        self._pending.clear()
        await self.base.close()

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
        # faulted independently, and the undelayed survivors re-batched.
        now_batch: List[Dict[str, Any]] = []
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
                    task = asyncio.get_running_loop().create_task(
                        self._deliver_later(delay, src, dst, rec)
                    )
                    self._pending.add(task)
                    task.add_done_callback(self._pending.discard)
        if now_batch:
            await self.base.send(src, dst, now_batch)

    async def _deliver_later(
        self, delay: float, src: ProcId, dst: ProcId, rec: Dict[str, Any]
    ) -> None:
        try:
            await asyncio.sleep(delay)
            if not self._closing:
                await self.base.send(src, dst, [rec])
        except asyncio.CancelledError:
            pass

    async def _flap(self) -> None:
        """Every ``flap_period`` seconds take one random (non-statically-
        blocked) edge down for ``flap_down`` seconds.  ``self.config`` is
        re-read each cycle so :meth:`reconfigure` changes take effect."""
        try:
            while True:
                cfg = self.config
                await asyncio.sleep(cfg.flap_period or 0.05)
                cfg = self.config
                candidates = [
                    e for e in self.net.edges if e not in cfg.blocked_edges
                ]
                if not candidates:
                    continue
                edge = self._rng.choice(candidates)
                self._down.add(edge)
                self.fault_stats["netem_flaps"] += 1
                self._log_fault("flap_down", edge=list(edge))
                await asyncio.sleep(cfg.flap_down)
                self._down.discard(edge)
                self._log_fault("flap_up", edge=list(edge))
        except asyncio.CancelledError:
            pass
