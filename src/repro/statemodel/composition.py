"""Priority composition of protocols.

The paper composes the routing algorithm ``A`` with SSMFP so that "a
processor which has enabled actions for both algorithms always chooses the
action of A".  :class:`PriorityStack` realizes exactly that: protocols are
ordered by decreasing priority, and at each processor only the actions of the
highest-priority protocol with any enabled action are offered to the daemon.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.statemodel.action import Action
from repro.statemodel.protocol import Protocol
from repro.statemodel.snapshot import StateVector
from repro.types import ProcId


class PriorityStack:
    """An ordered collection of protocols with per-processor priority.

    ``protocols[0]`` has the highest priority.  The stack itself satisfies
    the :class:`~repro.statemodel.protocol.Protocol` action interface used
    by the simulator.
    """

    def __init__(self, protocols: Sequence[Protocol]) -> None:
        if not protocols:
            raise ValueError("PriorityStack needs at least one protocol")
        self._protocols: List[Protocol] = list(protocols)
        #: (protocol, tracks_components, silent_at unless the default)
        #: triples, resolved once — the hot loop must not re-read them.
        self._layers: List[tuple] = [
            (p, bool(getattr(p, "tracks_components", False)),
             None if type(p).silent_at is Protocol.silent_at else p.silent_at)
            for p in self._protocols
        ]
        #: Component-evaluations charged to protocols that do *not* track
        #: components themselves: one per ``enabled_actions`` call (their
        #: whole per-processor evaluation counts as one unit of work).
        self._fallback_evals = 0

    @property
    def protocols(self) -> List[Protocol]:
        """The composed protocols, highest priority first."""
        return self._protocols

    def before_step(self, step: int) -> None:
        """Propagate the pre-step hook to every layer (environment moves are
        not subject to priority)."""
        for proto in self._protocols:
            proto.before_step(step)

    def enabled_actions(self, pid: ProcId) -> List[Action]:
        """Actions of the highest-priority protocol enabled at ``pid``; a
        layer silent at ``pid`` is not polled."""
        for proto, tracked, silent_at in self._layers:
            if silent_at is not None and silent_at(pid):
                continue
            if not tracked:
                self._fallback_evals += 1
            actions = proto.enabled_actions(pid)
            if actions:
                return actions
        return []

    @property
    def component_evals(self) -> int:
        """Cumulative component evaluations across the whole stack: the sum
        of the tracking protocols' own counters plus one per
        ``enabled_actions`` call into each non-tracking layer.  This is the
        number behind ``Simulator.guard_evals``."""
        total = self._fallback_evals
        for proto in self._protocols:
            total += proto.component_evals
        return total

    def snapshot(self) -> StateVector:
        """State vector of the whole stack: one entry per layer, in
        priority order."""
        return tuple(proto.snapshot() for proto in self._protocols)

    def restore(self, vec: StateVector) -> None:
        """Reinstate a previously captured :meth:`snapshot`, layer by
        layer."""
        for proto, layer_vec in zip(self._protocols, vec):
            proto.restore(layer_vec)

    def dirty_after(self, selection: Dict[ProcId, Action]) -> Optional[Set[ProcId]]:
        """Union of the layers' dirty sets; ``None`` (full re-scan) as soon
        as any layer declines to track its writes.

        A processor dirty for *any* layer is dirty for the whole stack:
        priority masking means a layer's enabledness change can expose or
        hide a lower layer's actions at that processor.  Every layer is
        drained even when one returns ``None``, so per-protocol
        accumulators never go stale across a full re-scan.
        """
        dirty: Optional[Set[ProcId]] = set()
        for proto in self._protocols:
            d = proto.dirty_after(selection)
            if d is None:
                dirty = None
            elif dirty is not None:
                dirty |= d
        return dirty
