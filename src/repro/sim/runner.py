"""Assembling and driving complete simulations.

The paper's full system is: a self-stabilizing routing protocol ``A`` with
priority, SSMFP below it, a higher layer with outboxes, an adversarial
daemon, and an arbitrary initial configuration.  :func:`build_simulation`
assembles exactly that from declarative knobs; :class:`Simulation` runs it
while feeding the workload and exposes the pieces for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.app.higher_layer import HigherLayer
from repro.app.workload import Workload
from repro.core.corruption import plant_invalid_messages, scramble_queues
from repro.core.family import ForwardingProtocol
from repro.core.invariants import InvariantChecker
from repro.core.ledger import DeliveryLedger
from repro.core.registry import resolve
from repro.errors import ConfigurationError, SimulationLimitExceeded
from repro.network.graph import Network
from repro.routing.corruption import corrupt_random, corrupt_worst_case
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import Daemon, DistributedRandomDaemon
from repro.statemodel.protocol import Protocol
from repro.statemodel.scheduler import RunResult, Simulator


@dataclass
class Simulation:
    """A fully assembled system, ready to run.

    The workload is fed into the higher layer as steps elapse (submissions
    scheduled for step k enter the outbox before step k executes).
    """

    net: Network
    routing: Union[StaticRouting, SelfStabilizingBFSRouting]
    forwarding: Protocol
    hl: HigherLayer
    ledger: DeliveryLedger
    sim: Simulator
    workload: Optional[Workload] = None
    #: Metrics registry fed by the simulator (``repro.obs``), if enabled.
    obs: Optional[object] = field(default=None, repr=False)
    #: Message-lifecycle tracer attached to this simulation, if enabled.
    tracer: Optional[object] = field(default=None, repr=False)
    _fed: int = field(default=0, repr=False)

    def _feed_workload(self) -> None:
        if self.workload is None:
            return
        now = self.sim.step_count
        subs = self.workload.submissions
        while self._fed < len(subs) and subs[self._fed][0] <= now:
            _, src, payload, dest = subs[self._fed]
            self.hl.submit(src, payload, dest, step=now)
            self._fed += 1

    def step(self):
        """Feed due workload, then execute one atomic step."""
        self._feed_workload()
        return self.sim.step()

    def _fast_forward_workload(self) -> bool:
        """When the network went idle before the next scheduled submission,
        skip the dead time: feed the earliest outstanding batch now.
        Returns True if anything was fed."""
        if self.workload is None:
            return False
        subs = self.workload.submissions
        if self._fed >= len(subs):
            return False
        next_at = subs[self._fed][0]
        while self._fed < len(subs) and subs[self._fed][0] == next_at:
            _, src, payload, dest = subs[self._fed]
            self.hl.submit(src, payload, dest, step=self.sim.step_count)
            self._fed += 1
        return True

    def run(
        self,
        max_steps: int,
        halt: Optional[Callable[["Simulation"], bool]] = None,
        raise_on_limit: bool = True,
        *,
        before_step: Optional[Callable[["Simulation"], object]] = None,
        on_idle: Optional[Callable[["Simulation"], bool]] = None,
    ) -> RunResult:
        """Run until terminal, halted, or out of budget (then raises by
        default, like :meth:`Simulator.run`).

        This is the one loop that steps a :class:`Simulation`; a driver
        hooks into it instead of copying it.  ``before_step`` sees the
        configuration each step is about to execute from — after ``halt``
        declined to stop there — and may probe it or fault it.  When
        nothing is enabled and the workload has no batch left to
        fast-forward, ``on_idle`` may offer more input (a fault batch, a
        late submission): the run goes on if it returns true and ends
        terminal otherwise.  ``halt`` is evaluated once more when the
        budget runs out, so a condition met by the very last step is a
        halt, not a miss.
        """
        halted = False
        for _ in range(max_steps):
            if halt is not None and halt(self):
                halted = True
                break
            if before_step is not None:
                before_step(self)
            report = self.step()
            if report.terminal:
                if self._fast_forward_workload():
                    continue
                if on_idle is not None and on_idle(self):
                    continue
                break
        else:
            if halt is not None and halt(self):
                halted = True
            elif raise_on_limit:
                raise SimulationLimitExceeded(
                    f"simulation did not reach its halt condition in "
                    f"{max_steps} steps; outstanding valid messages: "
                    f"{sorted(self.ledger.outstanding_uids())[:10]}, "
                    f"buffers occupied: {self._occupancy()}, "
                    f"pending submissions: {self.hl.total_pending()}",
                    steps=self.sim.step_count,
                    rounds=self.sim.round_count,
                )
        return RunResult(
            steps=self.sim.step_count,
            rounds=self.sim.round_count,
            terminal=self.sim.terminal,
            halted_by_predicate=halted,
            rule_counts=self.sim.rule_counts,
        )

    def _occupancy(self) -> int:
        fw = self.forwarding
        if isinstance(fw, ForwardingProtocol):
            return fw.bufs.total_occupied()
        from repro.baselines.merlin_schweitzer import MerlinSchweitzerForwarding

        if isinstance(fw, MerlinSchweitzerForwarding):
            return sum(1 for row in fw.buf for m in row if m is not None)
        return -1


def delivered_and_drained(simulation: Simulation) -> bool:
    """The standard halt condition: every submitted message generated and
    delivered, no outstanding submissions, and the network empty of valid
    traffic (invalid garbage may still be draining)."""
    if simulation.hl.total_pending() > 0:
        return False
    if simulation.workload is not None:
        if simulation._fed < simulation.workload.size:
            return False
    return simulation.ledger.all_valid_delivered()


def fully_quiescent(simulation: Simulation) -> bool:
    """Stronger halt: delivered_and_drained plus an empty network (all
    invalid garbage consumed or erased too)."""
    if not delivered_and_drained(simulation):
        return False
    fw = simulation.forwarding
    empty = getattr(fw, "network_is_empty", None)
    return bool(empty()) if callable(empty) else True


def _make_routing(
    net: Network,
    routing_mode: str,
    corruption: Optional[Dict],
    seed: int,
):
    if routing_mode == "static":
        if corruption:
            raise ConfigurationError("static routing cannot be corrupted")
        return StaticRouting(net)
    if routing_mode != "selfstab":
        raise ConfigurationError(
            f"routing_mode must be 'static' or 'selfstab', got {routing_mode!r}"
        )
    routing = SelfStabilizingBFSRouting(net)
    if corruption:
        kind = corruption.get("kind", "random")
        if kind == "random":
            corrupt_random(
                routing,
                seed=corruption.get("seed", seed),
                fraction=corruption.get("fraction", 1.0),
            )
        elif kind == "worst":
            corrupt_worst_case(routing, seed=corruption.get("seed", seed))
        else:
            raise ConfigurationError(f"unknown routing corruption kind {kind!r}")
    return routing


def build_simulation(
    net: Network,
    *,
    workload: Optional[Workload] = None,
    daemon: Optional[Daemon] = None,
    seed: int = 0,
    routing_mode: str = "selfstab",
    routing_corruption: Optional[Dict] = None,
    garbage: Optional[Dict] = None,
    scramble_choice_queues: bool = False,
    strict_invariants: bool = False,
    ledger_strict: bool = True,
    protocol: str = "ssmfp",
    protocol_options: Optional[Dict] = None,
    obs: Optional[object] = None,
    tracer: Optional[object] = None,
) -> Simulation:
    """Assemble the full forwarding system (SSMFP by default).

    Parameters
    ----------
    routing_mode:
        ``"static"`` (correct constant tables, the Proposition-1 regime) or
        ``"selfstab"`` (the protocol ``A`` composed with priority).
    routing_corruption:
        For ``selfstab``: ``{"kind": "random", "fraction": f, "seed": s}``
        or ``{"kind": "worst", "seed": s}``.
    garbage:
        ``{"seed": s, "fraction": f}`` — plant invalid messages into that
        fraction of all buffers.
    scramble_choice_queues:
        Randomize all ``choice`` queues (arbitrary initial state).
    strict_invariants:
        Install the per-step :class:`InvariantChecker` hook (O(n²)/step —
        for tests, not large benches).
    protocol:
        Registry name of the forwarding protocol to assemble
        (``"ssmfp"``, ``"ssmfp2"``; see :mod:`repro.core.registry`).
    protocol_options:
        Extra keyword arguments for the protocol's constructor (ablation
        knobs).
    obs:
        Optional :class:`repro.obs.MetricsRegistry` the simulator feeds
        with per-rule counts/wall-time, guard evaluations and round/
        neutralization events.  ``None`` (default) costs nothing.
    tracer:
        Optional :class:`repro.obs.MessageTracer`; attached to the
        assembled simulation (ledger + buffer + submit hooks) so every
        valid message's hop-by-hop lifecycle is recorded.
    """
    routing = _make_routing(net, routing_mode, routing_corruption, seed)
    ledger = DeliveryLedger(strict=ledger_strict)
    hl = HigherLayer(net.n)
    proto_cls = resolve(protocol)
    proto = proto_cls(net, routing, hl, ledger, **(protocol_options or {}))

    if garbage:
        plant_invalid_messages(
            proto,
            seed=garbage.get("seed", seed),
            fill_fraction=garbage.get("fraction", 0.3),
        )
    if scramble_choice_queues:
        scramble_queues(proto, seed=seed + 1)

    protocols: List[Protocol] = (
        [routing, proto] if isinstance(routing, SelfStabilizingBFSRouting) else [proto]
    )
    stack = PriorityStack(protocols)
    if daemon is None:
        daemon = DistributedRandomDaemon(seed=seed)
    hooks = [InvariantChecker(proto).as_hook()] if strict_invariants else None
    sim = Simulator(net.n, stack, daemon, strict_hooks=hooks, obs=obs)
    simulation = Simulation(
        net=net, routing=routing, forwarding=proto, hl=hl,
        ledger=ledger, sim=sim, workload=workload, obs=obs, tracer=tracer,
    )
    if tracer is not None:
        tracer.attach(simulation)
    return simulation


def build_baseline_simulation(
    net: Network,
    *,
    workload: Optional[Workload] = None,
    daemon: Optional[Daemon] = None,
    seed: int = 0,
    routing_mode: str = "selfstab",
    routing_corruption: Optional[Dict] = None,
    atomic_moves: bool = True,
    obs: Optional[object] = None,
    tracer: Optional[object] = None,
) -> Simulation:
    """Assemble the Merlin-Schweitzer baseline under the same
    routing/daemon machinery as SSMFP.  ``atomic_moves`` selects the MS
    hosting semantics (see the baseline's module docstring).
    ``obs``/``tracer`` as in :func:`build_simulation` (the baseline lacks
    SSMFP's buffer notifiers, so the tracer records the ledger-level
    lifecycle only)."""
    from repro.baselines.merlin_schweitzer import MerlinSchweitzerForwarding

    routing = _make_routing(net, routing_mode, routing_corruption, seed)
    hl = HigherLayer(net.n)
    ledger = DeliveryLedger(strict=False)
    proto = MerlinSchweitzerForwarding(
        net, routing, hl, ledger, atomic_moves=atomic_moves
    )
    protocols: List[Protocol] = (
        [routing, proto] if isinstance(routing, SelfStabilizingBFSRouting) else [proto]
    )
    if daemon is None:
        daemon = DistributedRandomDaemon(seed=seed)
    sim = Simulator(net.n, PriorityStack(protocols), daemon, obs=obs)
    simulation = Simulation(
        net=net, routing=routing, forwarding=proto, hl=hl,
        ledger=ledger, sim=sim, workload=workload, obs=obs, tracer=tracer,
    )
    if tracer is not None:
        tracer.attach(simulation)
    return simulation
