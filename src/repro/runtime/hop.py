"""The hop protocol: one processor's lanes as a pure state machine.

:class:`HopCore` ports the two-buffer forwarding scheme (the state
model's rules R1-R6, via the naive message-passing translation kept in
``tests/reference_mp_naive.py``) to channels that may drop, duplicate,
delay and reorder records.  It is *sans-IO*: its inputs are
:meth:`~HopCore.submit`, :meth:`~HopCore.on_records` and
:meth:`~HopCore.advance`, its outputs are ``(neighbor, record)`` pairs
appended to the caller's ``out`` list plus its own event log, counters
and samples, and every clock reading is an argument.  Two adapters drive
it: :class:`repro.runtime.node.RuntimeNode` (asyncio inbox, real clocks,
real transports) and
:class:`repro.messagepassing.engine.MessagePassingSimulator`, which
schedules each :class:`~repro.messagepassing.forwarding.HopMPNode` (a
core plus its virtual clock) against the seeded ``ChannelFaults``
adversary — one protocol, tested both deterministically and live.

Every hop lane is a **sliding window**:

===========  ================================================================
state model  hop protocol
===========  ================================================================
R1           ``generate``: outbox heads are sequenced straight into the
             outgoing lane while the lane's window has space
R2           a record is *released* (committable downstream) once the
             upstream copy is erased; the release level travels as a
             cumulative ``rel`` watermark piggybacked on DATA (or as a
             standalone ``REL`` when the lane is quiet)
R3           ``DATA(d, seq, ...)`` pipelined up to ``window`` in flight per
             (neighbor, destination) lane; the receiver accepts any seq
             inside the window (out-of-order ones are held and selectively
             acknowledged), acknowledges with one *coalesced* cumulative
             ACK + SACK bitmap per burst, and the sender retransmits on an
             RTT-estimated timeout (RFC 6298 SRTT/RTTVAR)
R4           a (cumulative or selective) ACK erases the sender's copy;
             the release watermark then advances to the cumulative level
R2's guard   the receiver forwards/delivers a record only once the
             sender's ``rel`` watermark covers it — at most one *live*
             copy of each message per hop, exactly as in the paper
R6           ``deliver``: at the destination, released records are consumed
             and delivery events appended to the conformance log
bufR / bufE  the DATA dict itself, one object per side of the wire: the
             receiver stores the dict it was handed (``ooo`` -> ``pending``
             -> ``fwd``) and **never writes to it** — a channel may hand the
             same object over twice — and forwarding copies it once into
             the dict the sender keeps in ``unacked`` until R4 erases it
===========  ================================================================

The sequence-number discipline is what upgrades best-effort transports to
exactly-once: a retransmitted or transport-duplicated ``DATA`` carries a
seq at or below the receiver's cumulative level (or one already held out
of order) and is answered with a harmless repeat ACK instead of a second
acceptance.  Pipelining does not weaken that claim — the journal version
of the paper (arXiv:0905.2540) derives the delivery guarantee from the
erase/duplication discipline, not from per-message lockstep — and the
conformance harness (:mod:`repro.runtime.conformance`) re-checks it from
the event log of every run.

The same core serves every member of the protocol family: the
fused single-buffer protocol (``repro.core.protocol2``) differs only in
its buffer budget.  The runtime imports no protocol class: the callers
that pick a protocol by name (``repro runtime --protocol`` and a runtime
scenario's lowering) cap ``ClusterSpec.window`` at the protocol's declared
``runtime_window_cap`` through :func:`repro.core.registry.runtime_window`
(1 for SSMFP2 — each lane degenerates to the stop-and-wait handshake, the
faithful live analogue of one fused buffer per hop).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Set, Tuple

from repro.network.graph import Network
from repro.routing.table import RoutingService
from repro.runtime.conformance import RuntimeEvent
from repro.runtime.wire import (
    ACK,
    DATA,
    RACK,
    REL,
    ack_rec,
    data_rec,
    rack_rec,
    rel_rec,
    sack_bitmap,
    sack_seqs,
)
from repro.types import DestId, ProcId

#: The SACK bitmap is 64 bits wide, so no window may exceed it.
MAX_WINDOW = 64


@dataclass
class RuntimeParams:
    """Knobs of the windowed hop protocol (times in seconds)."""

    tick: float = 0.005         #: event-loop heartbeat / stop-poll period
    retry_base: float = 0.05    #: RTO floor (clamps the RFC 6298 estimate)
    retry_cap: float = 0.4      #: RTO ceiling (also caps timeout backoff)
    window: int = 32            #: max in-flight DATA per (neighbor, dest) lane
    max_batch: int = 64         #: max records packed into one frame


@dataclass(slots=True)
class _Pending:
    """One unacknowledged DATA record of an outgoing lane."""

    rec: Dict[str, Any]
    first_sent: float
    last_sent: float
    retx: bool = False
    sack_skips: int = 0  #: ACKs that SACKed records beyond this one


@dataclass(slots=True)
class _OutLane:
    """Sender half of one (neighbor, destination) window lane."""

    nbr: ProcId
    dest: DestId
    next_seq: int = 1
    #: seq -> pending, ascending insertion order (dicts preserve it).
    unacked: Dict[int, _Pending] = field(default_factory=dict)
    rel_cum: int = 0        #: every seq <= this is erased here (released)
    cum_seen: int = 0       #: highest cumulative ACK received on the lane
    rel_confirmed: int = 0  #: highest release level the receiver confirmed
    rel_sent: int = 0       #: release level last announced standalone
    rel_backoff: int = 1
    rel_expiry: float = 0.0
    srtt: Optional[float] = None
    rttvar: float = 0.0
    rtt_max: float = 0.0    #: decayed max RTT — scheduling-stall tail guard
    samples: int = 0        #: RTT samples taken (warmup holds RTO high)
    rto: float = 0.25
    backoff: int = 1
    expiry: Optional[float] = None


@dataclass(slots=True)
class _InLane:
    """Receiver half of one (sender, destination) window lane."""

    cum: int = 0        #: highest seq accepted in order
    rel_cum: int = 0    #: highest release level applied
    #: out-of-order accepted records, seq -> the DATA dict as received.
    ooo: Dict[int, Dict[str, Any]] = field(default_factory=dict)
    #: in-order accepted DATA dicts (ascending ``s``) not yet released.
    pending: Deque[Dict[str, Any]] = field(default_factory=deque)
    coalesced: int = 0  #: DATA records covered since the last ACK went out


class _DestQueues:
    """Sparse ``dest -> deque`` store for the forwarding/outbox queues.

    A runtime node talks to a handful of live destinations at a time, so
    the per-destination queues materialize on first use and are evicted
    once drained — memory tracks the live set, not ``n``.  Reads through
    ``[d]`` never materialize: an absent destination reads as the empty
    sequence, the same absent≡empty invariant the state model's sparse
    buffers rely on.
    """

    __slots__ = ("_queues",)

    def __init__(self) -> None:
        self._queues: Dict[DestId, Deque] = {}

    def __getitem__(self, d: DestId):
        """The live deque, or ``()`` (read-only empty) when absent."""
        return self._queues.get(d, ())

    def ensure(self, d: DestId) -> Deque:
        """Get-or-create the real mutable deque for ``d``."""
        queue = self._queues.get(d)
        if queue is None:
            queue = self._queues[d] = deque()
        return queue

    def size(self, d: DestId) -> int:
        queue = self._queues.get(d)
        return 0 if queue is None else len(queue)

    def evict(self, d: DestId) -> None:
        """Drop ``d``'s queue iff it is drained (no-op otherwise)."""
        queue = self._queues.get(d)
        if queue is not None and not queue:
            del self._queues[d]

    def live(self) -> Set[DestId]:
        """Destinations with a materialized queue (footprint index)."""
        return set(self._queues)

    def empty(self) -> bool:
        return all(not queue for queue in self._queues.values())


class HopCore:
    """One processor's window lanes, queues, timers and event log.

    No IO and no clock: callers pass every reading in and ship ``out``
    themselves.
    """

    #: RTO before the first RTT sample (seconds), clamped to the params'
    #: floor and ceiling.
    _RTO_INITIAL = 0.25
    #: Per-destination reception backlog ceiling (records).
    _RECV_QUEUE = 256

    def __init__(
        self,
        pid: ProcId,
        net: Network,
        routing: RoutingService,
        params: Optional[RuntimeParams] = None,
    ) -> None:
        self.pid = pid
        self.net = net
        self.routing = routing
        self.params = params or RuntimeParams()
        self._window = max(1, min(self.params.window, MAX_WINDOW))
        self._rto_floor = max(0.0, self.params.retry_base)
        self._rto_ceil = max(self.params.retry_cap, self._rto_floor)
        self._rto_start = min(
            max(self._RTO_INITIAL, self._rto_floor), self._rto_ceil
        )
        #: Released records awaiting forwarding (or delivery), per dest —
        #: sparse: queues exist only for destinations with live traffic.
        self.fwd = _DestQueues()
        self.outbox = _DestQueues()
        self._out_lanes: Dict[Tuple[ProcId, DestId], _OutLane] = {}
        self._in_lanes: Dict[Tuple[ProcId, DestId], _InLane] = {}
        self._ack_dirty: Set[Tuple[ProcId, DestId]] = set()
        self._active: Set[DestId] = set()
        #: Conformance event log (generated / delivered), in node order.
        self.events: List[RuntimeEvent] = []
        self._next_uid = pid + 1  # stride n keeps uids globally unique
        #: Plain counters; the cluster publishes them into the obs registry.
        self.counters: Dict[str, int] = {
            "generated": 0,
            "delivered": 0,
            "retries": 0,
            "dup_data_acked": 0,
            "stale_records_dropped": 0,
            "recv_backpressure": 0,
        }
        #: Hop latencies (DATA first sent -> first covering ACK), seconds.
        self.hop_latencies: List[float] = []
        #: RTO estimate after each RTT sample, seconds.
        self.rto_samples: List[float] = []
        #: DATA records covered by each coalesced ACK.
        self.ack_coalesce: List[int] = []

    # -- application interface -----------------------------------------------

    def submit(self, payload: Any, dest: DestId) -> None:
        """Queue an application send (FIFO per destination)."""
        if dest == self.pid:
            raise ValueError("self-addressed messages never enter the network")
        self.outbox.ensure(dest).append(payload)
        self._active.add(dest)

    def is_idle(self) -> bool:
        """True iff no queue or lane holds anything and no ACK is owed."""
        return (
            self.fwd.empty()
            and self.outbox.empty()
            and not self._ack_dirty
            and all(
                not lane.unacked and lane.rel_confirmed >= lane.rel_cum
                for lane in self._out_lanes.values()
            )
            and all(
                not lane.pending and not lane.ooo
                for lane in self._in_lanes.values()
            )
        )

    def in_flight(self) -> int:
        """DATA records currently awaiting acknowledgement."""
        return sum(len(lane.unacked) for lane in self._out_lanes.values())

    def window_occupancy(self) -> List[int]:
        """Per-lane unacked counts (observability sampling)."""
        return [len(lane.unacked) for lane in self._out_lanes.values()]

    # -- wire handlers ---------------------------------------------------------

    def on_records(
        self,
        src: ProcId,
        records,
        now: float,
        out: List[Tuple[ProcId, Dict[str, Any]]],
    ) -> None:
        """Handle one inbound record batch from neighbor ``src``.  A record
        is applied whole or dropped whole: every field a handler needs is
        read and type-checked before a lane is touched."""
        for rec in records:
            try:
                kind = rec.get("k")
                if kind == DATA:
                    self._on_data(src, rec)
                elif any(not isinstance(v, int) for k, v in rec.items() if k != "k"):
                    raise TypeError("ACK / REL / RACK carry integers only")
                elif kind == ACK:
                    self._on_ack(src, rec, now, out)
                elif kind == REL:
                    self._on_rel(src, rec, out)
                elif kind == RACK:
                    self._on_rack(src, rec)
                else:
                    self.counters["stale_records_dropped"] += 1
            except (KeyError, TypeError, ValueError, AttributeError):
                self.counters["stale_records_dropped"] += 1

    def _on_data(self, src: ProcId, rec: Dict[str, Any]) -> None:
        d, seq, rel = rec["d"], rec["s"], rec["r"]
        if not (
            isinstance(d, int) and isinstance(seq, int) and isinstance(rel, int)
            and 0 <= d < self.net.n
        ):
            self.counters["stale_records_dropped"] += 1
            return
        uid, valid = rec.get("u", 0), rec.get("v", False)
        if (uid.__class__ is not int or valid.__class__ is not bool
                or "p" not in rec or len(rec) != 7):
            # Lenient: a forged DATA lacking u / v / p (or with odd types or
            # extra keys) is stored as its coerced copy: uid 0, invalid, None.
            rec = data_rec(d, seq, int(uid), rec.get("p"), bool(valid), rel)
        key = (src, d)
        lane = self._in_lanes.get(key)
        if lane is None:
            lane = self._in_lanes[key] = _InLane()
        cum = lane.cum
        if seq <= cum:
            # Retransmission (or transport duplicate) of something already
            # accepted: the repeat ACK is harmless and idempotent.
            self.counters["dup_data_acked"] += 1
        elif seq == cum + 1:
            pending = lane.pending
            if len(pending) + self.fwd.size(d) >= self._RECV_QUEUE:
                # Backpressure: stay silent, the sender's timer retries.
                self.counters["recv_backpressure"] += 1
                return
            pending.append(rec)  # the stored message: never written to
            coalesced = lane.coalesced + 1
            ooo = lane.ooo
            while ooo and seq + 1 in ooo:
                seq += 1
                pending.append(ooo.pop(seq))
                coalesced += 1
            lane.cum = seq
            lane.coalesced = coalesced
        elif seq <= cum + MAX_WINDOW:
            # Accept the full SACK-bitmap width beyond cum (not just the
            # sender's configured window): SACK pops let the sender's new
            # sequence numbers run ahead of the cumulative frontier.
            ooo = lane.ooo
            if seq in ooo:
                self.counters["dup_data_acked"] += 1
            elif (
                len(ooo) + len(lane.pending) + self.fwd.size(d)
                >= self._RECV_QUEUE
            ):
                self.counters["recv_backpressure"] += 1
                return
            else:
                ooo[seq] = rec
                lane.coalesced += 1
        else:
            # Beyond the window: forged, wildly reordered, or stale.
            self.counters["stale_records_dropped"] += 1
            return
        self._ack_dirty.add(key)
        if rel > lane.rel_cum:  # a burst carries one level: its head moves it
            self._apply_release(lane, d, rel)

    def _apply_release(self, lane: _InLane, d: DestId, rel: int) -> None:
        """Commit every pending record the sender has erased (<= ``rel``) —
        rule R2's guard, now a cumulative watermark."""
        effective = min(rel, lane.cum)
        if effective <= lane.rel_cum:
            return
        lane.rel_cum = effective
        pending = lane.pending
        if pending and pending[0]["s"] <= effective:
            fwd = self.fwd.ensure(d)
            while pending and pending[0]["s"] <= effective:
                fwd.append(pending.popleft())
            self._active.add(d)

    def _on_ack(
        self,
        src: ProcId,
        rec: Dict[str, Any],
        now: float,
        out: List[Tuple[ProcId, Dict[str, Any]]],
    ) -> None:
        cum = rec["c"]
        bits = rec["b"]
        rel_seen = rec["r"]
        lane = self._out_lanes.get((src, rec["d"]))
        if lane is None:
            return  # stale ACK for a lane we never opened
        unacked = lane.unacked
        newly: List[int] = []
        for seq in unacked:  # ascending: inserted in seq order
            if seq > cum:
                break
            newly.append(seq)
        sacked_max = 0
        if bits:
            for seq in sack_seqs(cum, bits):
                sacked_max = seq
                if seq in unacked:
                    newly.append(seq)
        if newly:
            erase = unacked.pop
            latency = self.hop_latencies.append
            sample = self._rtt_sample
            for seq in newly:
                pending = erase(seq)
                rtt = now - pending.first_sent
                latency(rtt)
                if not pending.retx:
                    sample(lane, rtt)
        if cum > lane.cum_seen:
            lane.cum_seen = cum
            # Only *cumulative* progress restarts the retransmission timer
            # (a hole at the head must not be starved by SACKs for the
            # traffic flowing past it), and it restarts at the probe timeout.
            lane.backoff = 1
            lane.expiry = (now + self._pto(lane)) if unacked else None
        elif not unacked:
            lane.expiry = None
        if sacked_max:
            # Fast retransmit: records the receiver SACKed around are holes.
            # Three strikes (dup-ack threshold), then resend without waiting
            # for the RTO — but give each resend one RTT to land first.
            grace = lane.srtt if lane.srtt is not None else lane.rto
            for seq, pending in unacked.items():
                if seq >= sacked_max:
                    break
                pending.sack_skips += 1
                if pending.sack_skips >= 3 and now - pending.last_sent >= grace:
                    pending.sack_skips = 0
                    pending.retx = True
                    pending.last_sent = now
                    pending.rec["r"] = lane.rel_cum
                    out.append((lane.nbr, pending.rec))
                    self.counters["retries"] += 1
        if cum > lane.rel_cum:
            # R4, cumulative: everything <= cum is erased here, so the
            # release watermark may advance (piggybacked on the next DATA,
            # or announced standalone by the next ``advance``).
            lane.rel_cum = cum
        if rel_seen > lane.rel_confirmed:
            lane.rel_confirmed = rel_seen
            lane.rel_backoff = 1

    def _on_rel(
        self,
        src: ProcId,
        rec: Dict[str, Any],
        out: List[Tuple[ProcId, Dict[str, Any]]],
    ) -> None:
        d = rec["d"]
        rel = rec["r"]
        if not 0 <= d < self.net.n:
            self.counters["stale_records_dropped"] += 1
            return
        lane = self._in_lanes.get((src, d))
        if lane is None or rel > lane.cum:
            # Release for records we never accepted: forged or reordered
            # across a reset.  Never confirm more than we applied.
            self.counters["stale_records_dropped"] += 1
            return
        self._apply_release(lane, d, rel)
        # Idempotent: a REL for an already-released level still RACKs.
        out.append((src, rack_rec(d, lane.rel_cum)))

    def _on_rack(self, src: ProcId, rec: Dict[str, Any]) -> None:
        rel = rec["r"]
        lane = self._out_lanes.get((src, rec["d"]))
        if lane is None:
            return
        if rel > lane.rel_confirmed:
            lane.rel_confirmed = rel
            lane.rel_backoff = 1

    # -- local rules -----------------------------------------------------------

    def advance(self, now: float, out: List[Tuple[ProcId, Dict[str, Any]]]) -> None:
        """Fire every enabled local rule and expired timer at monotonic
        time ``now``, which also stamps the events logged meanwhile."""
        if self._ack_dirty:
            self._emit_acks(out)
        if self._active:
            for d in list(self._active):
                fwd = self.fwd[d]
                box = self.outbox[d]
                if d == self.pid:
                    # R6: consume at the destination.
                    self.counters["delivered"] += len(fwd)
                    while fwd:
                        got = fwd.popleft()
                        self._append_event("delivered", got["u"], d, got["v"], now)
                    self._active.discard(d)
                    self.fwd.evict(d)
                    continue
                nbr = self.routing.next_hop(self.pid, d)
                lane = self._out_lanes.get((nbr, d))
                if lane is None:
                    lane = self._out_lanes[(nbr, d)] = _OutLane(
                        nbr=nbr, dest=d, rto=self._rto_start
                    )
                unacked = lane.unacked
                rel_cum = lane.rel_cum
                first = seq = lane.next_seq
                # Two send gates: the in-flight window, and the receiver's
                # acceptance horizon (cum + MAX_WINDOW, the bitmap width);
                # only an ACK moves either, so both are fixed for the burst.
                last = min(
                    seq + self._window - len(unacked) - 1,
                    lane.cum_seen + MAX_WINDOW,
                )
                while seq <= last and (fwd or box):
                    if fwd:
                        # The stored dict stays untouched: the outgoing one
                        # is its copy under this lane's seq and release level.
                        rec = fwd.popleft().copy()
                        rec["s"] = seq
                        rec["r"] = rel_cum
                    else:
                        # R1: generate straight into the lane (born released).
                        uid = self._next_uid
                        self._next_uid = uid + self.net.n
                        rec = data_rec(d, seq, uid, box.popleft(), True, rel_cum)
                        self.counters["generated"] += 1
                        self._append_event("generated", uid, d, True, now)
                    # R3: pipeline into the window.
                    unacked[seq] = _Pending(rec, now, now)
                    out.append((nbr, rec))
                    seq += 1
                if seq != first:
                    lane.next_seq = seq
                    if lane.expiry is None:
                        lane.expiry = now + self._pto(lane)
                if not fwd and not box:
                    self._active.discard(d)
                    self.fwd.evict(d)
                    self.outbox.evict(d)
        self._timers(now, out)

    def _emit_acks(self, out: List[Tuple[ProcId, Dict[str, Any]]]) -> None:
        """One coalesced ACK per dirty lane: cumulative + SACK bitmap +
        the applied release level."""
        for key in self._ack_dirty:
            src, d = key
            lane = self._in_lanes[key]
            bits = sack_bitmap(lane.cum, lane.ooo) if lane.ooo else 0
            out.append((src, ack_rec(d, lane.cum, bits, lane.rel_cum)))
            self.ack_coalesce.append(lane.coalesced)
            lane.coalesced = 0
        self._ack_dirty.clear()

    def _rtt_sample(self, lane: _OutLane, rtt: float) -> None:
        """RFC 6298: SRTT/RTTVAR smoothing, RTO clamped to the configured
        floor/ceiling.  Only never-retransmitted records sample (Karn).  Each
        ``max`` / ``min`` of ``tests/reference_hop.py`` is a comparison here."""
        srtt = lane.srtt
        if srtt is None:
            srtt, rttvar = rtt, rtt / 2.0
        else:
            rttvar = 0.75 * lane.rttvar + 0.25 * abs(srtt - rtt)
            srtt = 0.875 * srtt + 0.125 * rtt
        # Smoothed estimators forget tail spikes quickly, but a cooperative
        # event loop stalls in bursts — keep a slowly decaying max so the
        # RTO stays above the recently observed worst case.
        rtt_max = lane.rtt_max * 0.999
        if not rtt_max > rtt:
            rtt_max = rtt
        spread = 4.0 * rttvar
        tick = self.params.tick
        rto = srtt + (tick if tick > spread else spread)
        if rtt_max * 2.0 > rto:
            rto = rtt_max * 2.0
        lane.samples = samples = lane.samples + 1
        if samples < 64 and self._rto_start > rto:
            # Warmup: the startup burst is the most contended stretch of
            # the whole run, and a handful of fast early samples must not
            # collapse the RTO before the lane has seen its tail.
            rto = self._rto_start
        if self._rto_floor > rto:
            rto = self._rto_floor
        if self._rto_ceil < rto:
            rto = self._rto_ceil
        lane.srtt, lane.rttvar, lane.rtt_max, lane.rto = srtt, rttvar, rtt_max, rto
        self.rto_samples.append(rto)

    def _pto(self, lane: _OutLane) -> float:
        """Probe timeout: the first wait after progress, ``2·SRTT`` floored
        at ``retry_base`` and never above the RTO (the RTO itself before the
        first RTT sample).  The RTO holds ``2·rtt_max`` to ride out event-loop
        stalls; a first expiry only probes, so it need not wait that long."""
        srtt = lane.srtt
        if srtt is None:
            return lane.rto
        pto = 2.0 * srtt
        if self._rto_floor > pto:
            pto = self._rto_floor
        return pto if lane.rto > pto else lane.rto

    def _timers(
        self, now: float, out: List[Tuple[ProcId, Dict[str, Any]]]
    ) -> None:
        for lane in self._out_lanes.values():
            if lane.unacked:
                if lane.expiry is None or now < lane.expiry:
                    continue
                if lane.backoff == 1:
                    # First expiry since the lane last made progress (armed
                    # at the probe timeout): this is far more often a
                    # scheduling stall than a loss, so probe with the
                    # head-of-line record only (tail-loss probe).  A real
                    # head loss is repaired by exactly this record; a
                    # spurious timeout costs one duplicate.
                    head = next(iter(lane.unacked))
                    resend = [lane.unacked[head]]
                else:
                    # Still no progress after the probe: assume the window
                    # is gone and retransmit everything old enough that an
                    # ACK for it should already have arrived.  (SACKed
                    # records were erased from ``unacked`` on arrival, so
                    # nothing is resent needlessly.)
                    resend = [
                        p
                        for p in lane.unacked.values()
                        if now - p.last_sent >= lane.rto
                    ]
                for pending in resend:
                    pending.retx = True
                    pending.last_sent = now
                    pending.rec["r"] = lane.rel_cum
                    out.append((lane.nbr, pending.rec))
                    self.counters["retries"] += 1
                lane.backoff = min(lane.backoff * 2, 64)
                lane.expiry = now + min(lane.rto * lane.backoff, self._rto_ceil)
            elif lane.rel_confirmed < lane.rel_cum:
                # Quiet lane with unconfirmed releases: a new level goes out
                # standalone at once; only a repeat of the level already
                # announced waits for its timer (a probe timeout, then the
                # backed-off RTO).
                if lane.rel_sent != lane.rel_cum:
                    lane.rel_sent = lane.rel_cum
                    lane.rel_backoff = 1
                    lane.rel_expiry = now + self._pto(lane)
                elif now < lane.rel_expiry:
                    continue
                else:
                    self.counters["retries"] += 1
                    lane.rel_backoff = min(lane.rel_backoff * 2, 64)
                    lane.rel_expiry = now + min(
                        lane.rto * lane.rel_backoff, self._rto_ceil
                    )
                out.append((lane.nbr, rel_rec(lane.dest, lane.rel_cum)))

    # -- events ----------------------------------------------------------------

    def _append_event(
        self, kind: str, uid: int, dest: DestId, valid: bool, mono: float
    ) -> None:
        events = self.events
        # Positional (kind, uid, node, dest, valid, order, mono): this runs
        # once per generation and delivery inside the node loop.
        events.append(RuntimeEvent(kind, uid, self.pid, dest, valid, len(events), mono))
