"""Per-message lifecycle tracing: the Figure-3 story for every message.

The paper's worked execution (Figure 3) follows one message hop by hop
through the two-buffer graph: generated into ``bufR`` by R1, moved to
``bufE`` by R2, copied downstream by R3, the original erased by R4, and
finally consumed by R6 at the destination.  :class:`MessageTracer` records
exactly that causal timeline for *every* valid message of a run, keyed by
the hidden uid, with step and round stamps on every event.

The tracer is a pure subscriber: it attaches to an assembled
:class:`~repro.sim.runner.Simulation` through the hooks the incremental
engine already established —

* the :class:`~repro.core.ledger.DeliveryLedger` observer stream
  (``generated`` / ``delivered`` / ``lost``),
* the :class:`~repro.core.buffers.ForwardingBuffers` write notifier
  (chained after the forwarding protocol's own dirty-set hook, never
  replacing it),
* the :class:`~repro.app.higher_layer.HigherLayer` submit notifier.

Nothing in the protocol or the engine knows the tracer exists; a run
without one pays zero cost.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.obs.registry import SCHEMA

#: Display/sort priority of event kinds sharing a step: causal order of
#: one atomic step (a generation's ledger event precedes its bufR write
#: even though the callbacks fire in the opposite order).
_KIND_ORDER = {
    "submit": 0,
    "generated": 1,
    "buffer": 2,
    "cleared": 3,
    "delivered": 4,
    "lost": 5,
}


@dataclass(frozen=True)
class LifecycleEvent:
    """One stop on a message's causal timeline.

    ``kind`` is one of ``submit`` (handed to the higher layer),
    ``generated`` (rule R1), ``buffer`` (a copy appeared in
    ``buf<buffer>_proc(dest)``), ``cleared`` (that copy was erased — R4's
    release, R5's duplicate cleanup, or R6's consumption), ``delivered``
    (rule R6 handed it up) and ``lost`` (a baseline/ablation erased the
    last copy).
    """

    step: int
    round: int
    kind: str
    dest: Optional[int] = None
    proc: Optional[int] = None
    buffer: Optional[str] = None
    info: Dict[str, Any] = field(default_factory=dict)


class MessageTracer:
    """Records hop-by-hop lifecycles of valid messages, keyed by hidden uid.

    Invalid messages (negative uids — the pre-planted garbage of an
    arbitrary initial configuration) are not traced: the valid traffic is
    the Figure-3 story.
    """

    def __init__(self) -> None:
        self._events: Dict[int, List[Tuple[int, int, int, LifecycleEvent]]] = {}
        self._seq = 0
        #: Per-source queue of submissions not yet matched to a generation.
        self._pending_submits: Dict[int, Deque[Tuple[int, int, Any, int]]] = {}
        self._slots: Dict[Tuple[int, int, str], int] = {}
        self._sim = None
        self._bufs = None
        #: The attached forwarding protocol's ``name`` (stamped on rows).
        self._protocol = None
        #: Fault injections stamped into the timeline (scenario drivers and
        #: :class:`~repro.sim.faults.RoutingFaultInjector` call
        #: :meth:`record_fault`), exported as ``fault_event`` rows.
        self._faults: List[Dict[str, Any]] = []

    # -- attachment --------------------------------------------------------------

    def attach(self, simulation) -> "MessageTracer":
        """Subscribe to a :class:`~repro.sim.runner.Simulation`'s hooks.

        Chains behind any hooks already installed (notably the forwarding
        protocol's own incremental-engine notifiers).  Baselines without
        family-style buffers still get the ledger-level lifecycle
        (generated / delivered / lost), just no per-buffer hops.  The
        forwarding protocol's ``name`` is captured here and stamped on
        every exported row, so arena artifacts stay distinguishable per
        protocol.
        """
        if self._sim is not None:
            raise RuntimeError("tracer is already attached to a simulation")
        self._sim = simulation.sim
        self._protocol = getattr(simulation.forwarding, "name", None)
        simulation.ledger.add_observer(self._on_ledger_event)
        hl = getattr(simulation, "hl", None)
        if hl is not None and hasattr(hl, "bind_submit_notifier"):
            hl.bind_submit_notifier(self._on_submit)
        bufs = getattr(simulation.forwarding, "bufs", None)
        if bufs is not None and hasattr(bufs, "add_notifier"):
            self._bufs = bufs
            bufs.add_notifier(self._on_buffer_write)
        return self

    # -- stamps ------------------------------------------------------------------

    def _stamp(self) -> Tuple[int, int]:
        """(step, current 1-based round) at this instant."""
        sim = self._sim
        if sim is None:
            return (-1, 0)
        return (sim.step_count, sim.round_count + 1)

    def _append(self, uid: int, event: LifecycleEvent) -> None:
        self._seq += 1
        self._events.setdefault(uid, []).append(
            (event.step, _KIND_ORDER.get(event.kind, 9), self._seq, event)
        )

    def _wants(self, uid: int) -> bool:
        return uid > 0

    # -- subscription sinks ------------------------------------------------------

    def _on_submit(self, p: int, payload: Any, dest: int, step: int) -> None:
        """A higher-layer submission (uid not assigned yet — held until the
        matching R1 generation claims it; outboxes are FIFO per source)."""
        _, rnd = self._stamp()
        self._pending_submits.setdefault(p, deque()).append(
            (step, rnd, payload, dest)
        )

    def _on_ledger_event(self, kind: str, uid: int, info: Dict[str, Any]) -> None:
        if not self._wants(uid):
            return
        step = int(info.get("step", self._stamp()[0]))
        _, rnd = self._stamp()
        if kind == "generated":
            source = info.get("source")
            pending = self._pending_submits.get(source)
            if pending:
                sub_step, sub_round, payload, sub_dest = pending.popleft()
                self._append(
                    uid,
                    LifecycleEvent(
                        step=sub_step, round=sub_round, kind="submit",
                        dest=sub_dest, proc=source,
                        info={"payload": payload},
                    ),
                )
            self._append(
                uid,
                LifecycleEvent(
                    step=step, round=rnd, kind="generated",
                    dest=info.get("dest"), proc=source, info=dict(info),
                ),
            )
        elif kind == "delivered":
            self._append(
                uid,
                LifecycleEvent(
                    step=step, round=rnd, kind="delivered",
                    dest=info.get("at"), proc=info.get("at"), info=dict(info),
                ),
            )
        elif kind == "lost":
            self._append(
                uid,
                LifecycleEvent(
                    step=step, round=rnd, kind="lost", info=dict(info),
                ),
            )

    def _on_buffer_write(self, d: int, p: int, kind: str) -> None:
        """A buffer of ``p`` in component ``d`` was written.  Reconcile the
        tracer's view of that slot — and, for "E" notifications, also the
        R slot (rule R2's ``move_r_to_e`` fills E and empties R under a
        single notification)."""
        self._reconcile_slot(d, p, kind)
        if kind == "E":
            self._reconcile_slot(d, p, "R")

    def _reconcile_slot(self, d: int, p: int, kind: str) -> None:
        bufs = self._bufs
        msg = bufs.get_r(d, p) if kind == "R" else bufs.get_e(d, p)
        key = (d, p, kind)
        previous = self._slots.get(key)
        current = msg.uid if msg is not None else None
        if current == previous:
            return
        step, rnd = self._stamp()
        if previous is not None and self._wants(previous):
            self._append(
                previous,
                LifecycleEvent(
                    step=step, round=rnd, kind="cleared",
                    dest=d, proc=p, buffer=kind,
                ),
            )
        if current is None:
            self._slots.pop(key, None)
        else:
            self._slots[key] = current
            if self._wants(current):
                self._append(
                    current,
                    LifecycleEvent(
                        step=step, round=rnd, kind="buffer",
                        dest=d, proc=p, buffer=kind,
                        info={
                            "last": msg.last,
                            "color": msg.color,
                            "hops": msg.hops,
                        },
                    ),
                )

    def record_fault(
        self,
        action: str,
        detail: Optional[Dict[str, Any]] = None,
        step: Optional[int] = None,
    ) -> None:
        """Stamp a fault injection into the timeline.

        ``step`` defaults to the attached simulation's current step, so a
        fault lands between the message events it actually interleaved
        with — that is what lets ``repro obs summarize`` correlate faults
        with latency spikes.
        """
        at_step, rnd = self._stamp()
        self._faults.append(
            {
                "step": at_step if step is None else step,
                "round": rnd,
                "action": action,
                **(detail or {}),
            }
        )

    # -- queries -----------------------------------------------------------------

    def uids(self) -> List[int]:
        """Every traced uid, ascending."""
        return sorted(self._events)

    def timeline(self, uid: int) -> List[LifecycleEvent]:
        """The causal timeline of one uid, in step order (ties broken by
        the causal order of one atomic step, then by arrival)."""
        return [e for *_, e in sorted(self._events.get(uid, []))]

    # -- rendering / export ------------------------------------------------------

    def format_timeline(self, uid: int) -> str:
        """Human-readable causal timeline of one uid."""
        events = self.timeline(uid)
        if not events:
            return f"uid {uid}: no events traced"
        lines = [f"uid {uid} — {len(events)} events"]
        for e in events:
            place = ""
            if e.proc is not None:
                place = f" p={e.proc}"
                if e.buffer is not None:
                    place = f" buf{e.buffer}_{e.proc}({e.dest})"
            detail = ""
            if e.kind == "buffer":
                detail = f" last={e.info.get('last')} color={e.info.get('color')}"
            elif e.kind == "submit":
                detail = f" -> dest {e.dest}"
            elif e.kind == "lost":
                detail = f" ({e.info.get('reason', '?')})"
            lines.append(
                f"  step {e.step:>6}  round {e.round:>4}  {e.kind:<9}{place}{detail}"
            )
        return "\n".join(lines)

    def to_rows(self) -> List[Dict[str, object]]:
        """Every traced event as a schema-versioned JSONL-ready row."""
        out: List[Dict[str, object]] = []
        for uid in self.uids():
            for seq, e in enumerate(self.timeline(uid)):
                row: Dict[str, object] = {
                    "schema": SCHEMA,
                    "kind": "trace_event",
                    "uid": uid,
                    "seq": seq,
                    "step": e.step,
                    "round": e.round,
                    "event": e.kind,
                }
                if self._protocol is not None:
                    row["protocol"] = self._protocol
                if e.dest is not None:
                    row["dest"] = e.dest
                if e.proc is not None:
                    row["proc"] = e.proc
                if e.buffer is not None:
                    row["buffer"] = e.buffer
                for key, value in e.info.items():
                    row.setdefault(key, value)
                out.append(row)
        for fault in self._faults:
            row = {"schema": SCHEMA, "kind": "fault_event"}
            if self._protocol is not None:
                row["protocol"] = self._protocol
            row.update(fault)
            out.append(row)
        return out
