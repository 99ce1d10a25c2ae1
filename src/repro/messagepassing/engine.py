"""An asynchronous message-passing simulator for the hop protocol.

Model: nodes connected by one FIFO channel per directed edge.  An
adversarial (seeded) scheduler repeatedly picks either

* a nonempty channel, handing its head to the receiver's
  :class:`~repro.runtime.hop.HopCore`, or
* the timer of a node whose core holds anything: the node's virtual clock
  moves one ``params.tick`` forward and the core fires its rules, owed
  ACKs and expired timers.

Whatever the core emits is enqueued on the outgoing channels (asynchrony:
delivery happens whenever the scheduler gets around to it).  Channels
default to reliable FIFO, but the interesting adversary is weaker still:
:class:`ChannelFaults` makes delivery *lossy* (the head is consumed but
never handed over), *duplicating* (the head is handed over and a copy
re-enqueued at the tail) and/or *reordering* (a random queue position is
delivered instead of the head), all driven by the simulator's seeded RNG.
Each node is a :class:`~repro.messagepassing.forwarding.HopMPNode`: the
live runtime's own lane protocol, which stays exactly-once here.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationLimitExceeded
from repro.network.graph import Network
from repro.types import ProcId


@dataclass(frozen=True)
class ChannelFaults:
    """Per-delivery fault probabilities (the channel adversary).

    Applied when the scheduler picks a delivery event: with probability
    ``reorder`` a random queue position is delivered instead of the FIFO
    head; with probability ``loss`` the chosen message is consumed but not
    delivered; with probability ``dup`` a copy of the delivered message is
    re-enqueued at the tail (to be delivered again later).
    """

    loss: float = 0.0
    dup: float = 0.0
    reorder: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss", "dup", "reorder"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"fault probability {name}={value} outside [0, 1]"
                )


class Channel:
    """A FIFO channel for one directed edge."""

    __slots__ = ("src", "dst", "queue")

    def __init__(self, src: ProcId, dst: ProcId) -> None:
        self.src = src
        self.dst = dst
        self.queue: Deque[Any] = deque()

    def __len__(self) -> int:
        return len(self.queue)

    def __repr__(self) -> str:
        return f"Channel({self.src}->{self.dst}, {len(self.queue)} queued)"


class MessagePassingSimulator:
    """Drives the cores and channels under an adversarial seeded scheduler."""

    def __init__(
        self,
        net: Network,
        nodes: List[Any],
        seed: int = 0,
        faults: Optional[ChannelFaults] = None,
    ) -> None:
        if len(nodes) != net.n:
            raise ConfigurationError(
                f"need one node per processor: {len(nodes)} != {net.n}"
            )
        self.net = net
        self.nodes = nodes
        self._rng = random.Random(seed)
        self.faults = faults or ChannelFaults()
        self.channels: Dict[Tuple[ProcId, ProcId], Channel] = {}
        for u, v in net.edges:
            self.channels[(u, v)] = Channel(u, v)
            self.channels[(v, u)] = Channel(v, u)
        self.events = 0
        self.delivered_messages = 0
        self.lost_messages = 0
        self.duplicated_messages = 0
        self.reordered_messages = 0

    # -- plumbing ---------------------------------------------------------------

    def _enqueue(self, frm: ProcId, to: ProcId, payload: Any) -> None:
        try:
            self.channels[(frm, to)].queue.append(payload)
        except KeyError:
            raise ConfigurationError(
                f"no channel {frm} -> {to} (not an edge)"
            ) from None

    def in_flight(self) -> int:
        """Messages currently queued on any channel."""
        return sum(len(c) for c in self.channels.values())

    # -- scheduling ------------------------------------------------------------

    def step(self) -> bool:
        """One scheduler event; False if nothing is enabled (quiescent).

        The enabled events, in this order: every nonempty channel (edge
        order), then every node whose core is not idle (pid order)."""
        options: List[Any] = [c for c in self.channels.values() if c.queue]
        options += [node for node in self.nodes if not node.core.is_idle()]
        if not options:
            return False
        chosen = self._rng.choice(options)
        out: List[Tuple[ProcId, Dict[str, Any]]] = []
        if chosen.__class__ is Channel:
            node = self.nodes[chosen.dst]
            node.core.on_records(chosen.src, self._take(chosen), node.now, out)
        else:
            node = chosen
            node.now += node.core.params.tick
            node.core.advance(node.now, out)
        for nbr, rec in out:
            # Channels carry values: the core rewrites a pending record's
            # release watermark in place when it retransmits.
            self._enqueue(node.core.pid, nbr, dict(rec))
        self.events += 1
        return True

    def _take(self, channel: Channel) -> Tuple[Any, ...]:
        """Dequeue one message off ``channel`` through the fault model: the
        messages this delivery hands over, none if it is lost."""
        faults = self.faults
        rng = self._rng
        queue = channel.queue
        if faults.reorder and len(queue) > 1 and rng.random() < faults.reorder:
            index = rng.randrange(1, len(queue))
            payload = queue[index]
            del queue[index]
            self.reordered_messages += 1
        else:
            payload = queue.popleft()
        if faults.loss and rng.random() < faults.loss:
            self.lost_messages += 1
            return ()
        if faults.dup and rng.random() < faults.dup:
            queue.append(payload)
            self.duplicated_messages += 1
        self.delivered_messages += 1
        return (payload,)

    def run(
        self,
        max_events: int,
        halt: Optional[Callable[["MessagePassingSimulator"], bool]] = None,
    ) -> None:
        """Run until quiescent or halted; raises
        :class:`SimulationLimitExceeded` when ``max_events`` run out first."""
        for _ in range(max_events):
            if halt is not None and halt(self):
                return
            if not self.step():
                return
        if halt is not None and halt(self):
            return
        raise SimulationLimitExceeded(
            f"no quiescence within {max_events} events; "
            f"{self.in_flight()} messages in flight",
            steps=self.events,
            rounds=0,
        )
