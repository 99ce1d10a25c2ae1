"""An asynchronous message-passing simulator.

Model: nodes connected by one FIFO channel per directed edge.  An
adversarial (seeded) scheduler repeatedly picks either

* a nonempty channel, delivering its head to the receiver's
  ``on_message``, or
* an enabled *local action* of some node (generation, buffer commits,
  timeouts — whatever the node protocol exposes).

Handlers send by calling :meth:`MPNode.send`; sends are enqueued on the
outgoing channel (asynchrony: delivery happens whenever the scheduler gets
around to it).  Channels default to reliable FIFO — the weakest
assumptions under which the fault-free port works — but the interesting
adversary is weaker still: :class:`ChannelFaults` makes delivery *lossy*
(the head is consumed but never handed over), *duplicating* (the head is
handed over and a copy re-enqueued at the tail) and/or *reordering* (a
random queue position is delivered instead of the head), all driven by the
simulator's seeded RNG.
:class:`~repro.messagepassing.forwarding.HopMPNode` runs the live runtime's
own lane protocol (:mod:`repro.runtime.hop`: sequence numbers,
retransmission, idempotent acknowledgements) on these channels and stays
exactly-once.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError, SimulationLimitExceeded
from repro.network.graph import Network
from repro.types import ProcId


@dataclass
class LocalAction:
    """One enabled local action of a node: a label plus a thunk."""

    node: ProcId
    label: str
    effect: Callable[[], None]


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


class MPNode(ABC):
    """Base class for message-passing protocol nodes.

    Subclasses implement :meth:`on_message` and :meth:`local_actions`;
    the simulator wires :attr:`_send` before the first event.
    """

    def __init__(self, pid: ProcId) -> None:
        self.pid = pid
        self._send: Optional[Callable[[ProcId, ProcId, Any], None]] = None

    def send(self, to: ProcId, payload: Any) -> None:
        """Enqueue ``payload`` on the channel to neighbor ``to``."""
        if self._send is None:
            raise ConfigurationError("node is not attached to a simulator")
        self._send(self.pid, to, payload)

    @abstractmethod
    def on_message(self, frm: ProcId, payload: Any) -> None:
        """Handle one delivered message."""

    @abstractmethod
    def local_actions(self) -> List[LocalAction]:
        """Currently enabled local actions (may be empty)."""


class MessagePassingSimulator:
    """Drives nodes and channels under an adversarial seeded scheduler."""

    def __init__(
        self,
        net: Network,
        nodes: List[MPNode],
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
        for node in nodes:
            node._send = self._enqueue
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

    def _choices(self) -> List[Tuple[str, Any]]:
        options: List[Tuple[str, Any]] = [
            ("deliver", c) for c in self.channels.values() if c.queue
        ]
        for node in self.nodes:
            for action in node.local_actions():
                options.append(("local", action))
        return options

    def step(self) -> bool:
        """One scheduler event; False if nothing is enabled (quiescent)."""
        options = self._choices()
        if not options:
            return False
        kind, chosen = self._rng.choice(options)
        if kind == "deliver":
            self._deliver(chosen)
        else:
            chosen.effect()
        self.events += 1
        return True

    def _deliver(self, channel: Channel) -> None:
        """Deliver one message off a channel, through the fault model."""
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
            return
        if faults.dup and rng.random() < faults.dup:
            queue.append(payload)
            self.duplicated_messages += 1
        self.delivered_messages += 1
        self.nodes[channel.dst].on_message(channel.src, payload)

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
