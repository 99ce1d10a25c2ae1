"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

import asyncio
import random
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.app.higher_layer import HigherLayer
from repro.buffergraph.graph import BufferGraph, BufferId
from repro.core.invariants import InvariantChecker
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.core.protocol2 import SSMFP2
from repro.errors import SimulationLimitExceeded, TopologyError
from repro.network.properties import bfs_distances
from repro.obs.tracer import MessageTracer
from repro.routing.analysis import routing_errors
from repro.routing.static import StaticRouting
from repro.runtime.hop import HopCore
from repro.runtime.transport import TcpTransport
from repro.statemodel.daemon import Daemon
from repro.verify.modelcheck import ModelChecker


def make_ssmfp(net, routing=None, **kwargs):
    """Assemble an SSMFP instance with static routing and fresh
    higher-layer/ledger (helper for rule-level unit tests)."""
    routing = routing if routing is not None else StaticRouting(net)
    hl = HigherLayer(net.n)
    ledger = DeliveryLedger()
    return SSMFP(net, routing, hl, ledger, **kwargs)


def make_ssmfp2(net, routing=None, **kwargs):
    """Assemble an SSMFP2 (fused single-buffer) instance with static
    routing and fresh higher-layer/ledger."""
    routing = routing if routing is not None else StaticRouting(net)
    hl = HigherLayer(net.n)
    ledger = DeliveryLedger()
    return SSMFP2(net, routing, hl, ledger, **kwargs)


def rule(proto, label, p, d):
    """The action labelled ``label`` among the enabled rules of ``(p, d)``,
    or None when that guard is false — one rule out of the fused evaluator."""
    assert label in proto.rule_order
    for action in proto._eval_component(p, d):
        if action.rule == label:
            return action
    return None


# -- Fixtures the product never runs ------------------------------------------
# Tests of product behaviour need these as inputs or as judges; nothing under
# src/ calls them, so they live here rather than in the package.


def routing_is_correct(net, routing) -> bool:
    """True iff every routing entry lies on a minimal path."""
    return not routing_errors(net, routing)


def is_connected(net) -> bool:
    """True iff every processor is reachable from processor 0."""
    return all(d >= 0 for d in bfs_distances(net, 0))


def corrupt_with_cycle(routing, dest, cycle: Sequence[int]) -> None:
    """Point each processor of ``cycle`` at the next one (mod length) for
    destination ``dest`` — the corrupted-routing loop of Figure 3.

    Every consecutive pair must be an edge of the network.  Distances along
    the cycle are set to a plausible-looking descending ramp so the entries
    are not locally suspicious.
    """
    net = routing.network
    k = len(cycle)
    if k < 2:
        raise ValueError("a routing cycle needs at least 2 processors")
    for i, p in enumerate(cycle):
        q = cycle[(i + 1) % k]
        if not net.are_neighbors(p, q):
            raise ValueError(f"cycle step {p} -> {q} is not an edge")
        if p == dest:
            raise ValueError("the destination cannot be part of its own cycle")
        dist = max(1, (net.n - 1) - i % max(net.n - 1, 1))
        routing.set_entry(dest, p, dist, q)


class LocallyCentralRandomDaemon(Daemon):
    """Distributed daemon that never selects two *neighboring* processors in
    the same step (the locally central daemon of the literature); selection
    is a random maximal independent subset of the enabled processors.  The
    engine-equivalence adversary: a schedule shape no shipped daemon makes.
    """

    def __init__(self, seed: int, neighbors: Sequence[Sequence[int]]) -> None:
        self._seed = seed
        self._rng = random.Random(seed)
        self._neighbors = [frozenset(ns) for ns in neighbors]

    def select(self, enabled, step):
        rng = self._rng
        order = sorted(enabled)
        rng.shuffle(order)
        chosen = {}
        blocked: set = set()
        for pid in order:
            if pid in blocked:
                continue
            chosen[pid] = rng.choice(enabled[pid])
            blocked.update(self._neighbors[pid])
        return chosen

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class DeadlockFreeController:
    """Move-permission oracle over an acyclic buffer graph (Merlin &
    Schweitzer): a move into buffer ``b`` is allowed only along a graph
    edge, so messages in buffers maximal in the topological order can
    always advance or be consumed.  A cyclic graph is rejected eagerly.
    """

    def __init__(self, graph: BufferGraph) -> None:
        order = graph.topological_order()
        if order is None:
            raise TopologyError(
                "buffer graph is cyclic, cannot build a deadlock-free controller"
            )
        self._graph = graph
        self._rank: Dict[BufferId, int] = {b: i for i, b in enumerate(order)}

    def rank(self, b: BufferId) -> int:
        """Position of ``b`` in the certified topological order."""
        return self._rank[b]

    def permits_move(self, src: BufferId, dst: BufferId) -> bool:
        """True iff forwarding from ``src`` into ``dst`` follows a graph edge."""
        return dst in self._graph.successors(src)

    def permits_generation(self, into: BufferId) -> bool:
        """Generation is allowed into any buffer of the graph."""
        return into in self._rank

    def certify_progress(
        self,
        occupancy: Dict[BufferId, object],
        consumable: Callable[[BufferId], bool],
    ) -> Optional[Tuple[str, BufferId]]:
        """``("consume", b)`` or ``("forward", b)`` for some occupied buffer
        that can act, or None iff the network is empty.  On an acyclic graph
        this never returns None while occupied buffers exist — the
        deadlock-freedom theorem the property tests assert."""
        if not occupancy:
            return None
        occupied = sorted(occupancy, key=lambda b: self._rank[b], reverse=True)
        for b in occupied:
            if consumable(b):
                return ("consume", b)
            for s in self._graph.successors(b):
                if s not in occupancy:
                    return ("forward", b)
        # Every occupied buffer is stuck: only possible when some occupied
        # buffer has no successor and is not consumable — a routing fault.
        return None


def weakly_connected_components(graph: BufferGraph) -> List[FrozenSet[BufferId]]:
    """Components of ``graph`` ignoring edge direction, sorted by their
    smallest buffer.  The destination-based construction yields exactly one
    component per destination."""
    adjacent: Dict[BufferId, List[BufferId]] = {b: [] for b in graph.nodes}
    for u, v in graph.edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    seen: Set[BufferId] = set()
    comps: List[FrozenSet[BufferId]] = []
    for b in graph.nodes:
        if b in seen:
            continue
        comp: Set[BufferId] = set()
        stack = [b]
        seen.add(b)
        while stack:
            x = stack.pop()
            comp.add(x)
            for y in adjacent[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        comps.append(frozenset(comp))
    comps.sort(key=min)
    return comps


# -- Reads of private state the memory and engine pins assert on ---------------


def live_sources(hl: HigherLayer) -> Set[int]:
    """Processors with a materialized outbox (the higher layer evicts an
    outbox as soon as it empties)."""
    return set(hl._outbox)


def occupied_in_component(bufs, d) -> int:
    """Nonempty buffers in destination ``d``'s component, as counted by
    the buffers' own occupancy index."""
    return bufs._occupied.get(d, 0)


def materialized_buffer_destinations(bufs) -> Set[int]:
    """Destinations with at least one materialized buffer cell."""
    return set(bufs._r) | set(bufs._e)


def materialized_queue_destinations(queues) -> Set[int]:
    """Destinations with at least one materialized choice queue."""
    return set(queues._rows)


def materialized_queue_count(queues) -> int:
    """Number of materialized choice queues across every destination."""
    return sum(len(row) for row in queues._rows.values())


def inject(sim, frm, to, payload) -> None:
    """Plant ``payload`` directly into the ``frm -> to`` channel of a
    ``MessagePassingSimulator``: a corrupted initial channel content."""
    sim._enqueue(frm, to, payload)


def complete_uids(tracer) -> List[int]:
    """Uids whose full generation → delivery lifecycle the tracer captured."""
    return [
        uid
        for uid in tracer.uids()
        if {"generated", "delivered"} <= {e.kind for e in tracer.timeline(uid)}
    ]


# -- Values of product parameters that only tests need ------------------------
# The product runs one configuration of each of these; a test that needs
# another gets it here, by subclass or wrapper, never through a product
# parameter.


def after_each_step(simulator, check):
    """Call ``check()`` after every step ``simulator`` executes (a terminal
    step executes nothing): wraps the instance's ``step``, the one call
    :meth:`Simulator.run` and :meth:`Simulation.run` both make.  Returns
    ``simulator``."""
    step = simulator.step

    def checked_step():
        report = step()
        if not report.terminal:
            check()
        return report

    simulator.step = checked_step
    return simulator


def checked(simulation):
    """A :func:`build_simulation` result that re-checks Lemmas 4-5
    (:class:`InvariantChecker`) after every step."""
    after_each_step(simulation.sim, InvariantChecker(simulation.forwarding).check)
    return simulation


class AllMessagesTracer(MessageTracer):
    """A :class:`MessageTracer` that also traces invalid messages (negative
    uids, the planted garbage of an arbitrary initial configuration)."""

    def _wants(self, uid: int) -> bool:
        return True


class CanonModelChecker(ModelChecker):
    """A :class:`ModelChecker` whose result also carries ``canons``: the
    reachable canon set (orbit representatives under symmetry), the
    differential oracles' raw material."""

    def _visited(self, root_key):
        self._seen = super()._visited(root_key)
        return self._seen

    def run(self):
        result = super().run()
        result.canons = frozenset(self._seen)
        del self._seen
        return result


def ignoring_pending(checker_cls, pids):
    """``checker_cls`` (a :class:`LivenessChecker`) whose starvation
    targets leave out the pending submissions of ``pids`` — the
    deliberately infinite pressure sources of a starvation instance."""
    markers = frozenset(-(p + 1) for p in pids)

    class Checker(checker_cls):
        def _node_metadata(self, system):
            return super()._node_metadata(system) - markers

    return Checker


class HostTcpTransport(TcpTransport):
    """A :class:`TcpTransport` serving only ``local_pids``, so that two of
    them in one process stand in for two hosts; it reconnects fast, and
    ``edge_queue`` shrinks its per-edge outbound queue."""

    _BACKOFF_BASE = 0.02
    _BACKOFF_CAP = 0.1

    def __init__(self, net, ports, local_pids, edge_queue=None):
        super().__init__(net, ports)
        self._local_pids = tuple(local_pids)
        if edge_queue is not None:
            self._EDGE_QUEUE = edge_queue

    async def start(self) -> None:
        for pid in self._local_pids:
            host, port = self.ports[pid]
            self._servers.append(
                await asyncio.start_server(self._conn_handler, host=host, port=port)
            )


def tuned_hop_core(
    *args,
    rto_initial: float = HopCore._RTO_INITIAL,
    recv_queue: int = HopCore._RECV_QUEUE,
) -> HopCore:
    """A :class:`HopCore` built from ``args`` whose initial RTO and
    per-destination reception ceiling are ``rto_initial`` / ``recv_queue``
    instead of the product's constants."""
    tuned = type(
        "TunedHopCore",
        (HopCore,),
        {"_RTO_INITIAL": rto_initial, "_RECV_QUEUE": recv_queue},
    )
    return tuned(*args)


def run_events(sim, max_events, halt=None) -> bool:
    """Run a ``MessagePassingSimulator`` like its ``run``, but return False
    where the event budget runs out (``run`` raises): for the runs whose
    subject is what a wedged or livelocked network leaves behind."""
    try:
        sim.run(max_events, halt=halt)
    except SimulationLimitExceeded:
        return False
    return True
