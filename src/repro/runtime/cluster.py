"""Cluster orchestration: run N live nodes from any repro topology.

Every node is an asyncio task in this one process, behind one entry
point, :func:`run_cluster`, in two execution shapes:

* ``transport="local"`` — frames move through in-memory queues;
* ``transport="tcp"`` — frames cross real loopback sockets with
  length-prefixed framing.

The cluster drives a :mod:`repro.app.workload` workload, records every
generate/deliver event for the conformance oracle
(:mod:`repro.runtime.conformance`), and exports per-hop latency
histograms, retry counts and in-flight gauges as ``repro.obs/v1`` rows.

Failure modes are first-class: a port already in use, a node crashing,
the deadline expiring and KeyboardInterrupt all end the run with a
*partial* :class:`RuntimeResult` (``partial=True``, errors recorded)
instead of a hung event loop — the CLI turns that into a summary plus a
nonzero exit.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.app.workload import (
    event_rng,
    flood_total,
    sized_workload_kwargs,
    workload_by_name,
)
from repro.errors import ConfigurationError
from repro.network.graph import Network
from repro.network.topologies import topology_by_name
from repro.routing.static import StaticRouting
from repro.runtime.conformance import (
    ConformanceReport,
    RuntimeEvent,
    check_events,
    message_latencies,
    require_clean_start,
)
from repro.runtime.netem import NetemConfig, NetemTransport
from repro.runtime.hop import RuntimeParams
from repro.runtime.node import RuntimeNode
from repro.runtime.sizes import check_sizes
from repro.runtime.transport import (
    LocalTransport,
    TcpTransport,
    Transport,
    allocate_ports,
)

#: Longest wait, after the last delivery, for REL/RACK handshakes to
#: settle so that the network ends empty, not merely delivered (seconds).
DRAIN_GRACE = 2.0


@dataclass
class ClusterSpec:
    """Everything needed to run one live cluster.  A size the runtime
    cannot honour (:func:`~repro.runtime.sizes.check_sizes`) is refused at
    construction."""

    topology: Dict[str, Any]
    messages: int = 100
    seed: int = 0
    transport: str = "local"            #: "local" | "tcp"
    workload: str = "uniform"
    netem: Optional[Dict[str, Any]] = None
    deadline: float = 60.0              #: hard wall-clock budget (seconds)
    port_base: int = 0                  #: 0 = auto-allocate free ports
    tick: float = 0.005
    retry_base: float = 0.05
    retry_cap: float = 0.4
    #: In-flight DATA per (edge, dest) lane.  The cluster runs the hop lane
    #: machine alone; a caller that picks a protocol by name caps this at
    #: its ``runtime_window_cap`` (:func:`repro.core.registry.runtime_window`).
    window: int = 32
    max_batch: int = 64                 #: max records packed into one frame
    #: The scenario's validated schedule events
    #: (:class:`repro.scenario.actions.ScheduleEvent`), their times lowered
    #: to seconds from run start; one asyncio task drives each.
    chaos: Optional[List[Any]] = None

    def __post_init__(self) -> None:
        check_sizes(
            window=self.window,
            max_batch=self.max_batch,
            messages=self.messages,
            deadline=self.deadline,
        )

    def build_network(self) -> Network:
        return topology_by_name(
            self.topology["name"], **self.topology.get("kwargs", {})
        )

    def build_params(self) -> RuntimeParams:
        return RuntimeParams(
            tick=self.tick,
            retry_base=self.retry_base,
            retry_cap=self.retry_cap,
            window=self.window,
            max_batch=self.max_batch,
        )

    def build_submissions(self) -> List[Tuple[int, int, Any, int]]:
        net = self.build_network()
        kwargs = sized_workload_kwargs(self.workload, self.messages, net.n)
        wl = workload_by_name(self.workload, net.n, self.seed, **kwargs)
        return list(wl.submissions)

    def build_netem(self) -> Optional[NetemConfig]:
        if not self.netem:
            return None
        config = NetemConfig.from_spec(self.netem)
        return None if config.is_noop() else config


@dataclass
class RuntimeResult:
    """Outcome of one cluster run (always produced, even on failure)."""

    spec: ClusterSpec
    report: ConformanceReport
    events: List[RuntimeEvent] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    transport_stats: Dict[str, int] = field(default_factory=dict)
    netem_stats: Dict[str, int] = field(default_factory=dict)
    hop_latencies: List[float] = field(default_factory=list)
    #: Mono-stamped fault transitions (link flaps/partitions, crashes,
    #: floods) merged from the transport log and the chaos driver.
    fault_events: List[Dict[str, Any]] = field(default_factory=list)
    in_flight_samples: List[int] = field(default_factory=list)
    rto_samples: List[float] = field(default_factory=list)
    batch_sizes: List[int] = field(default_factory=list)
    ack_coalesce: List[int] = field(default_factory=list)
    window_samples: List[int] = field(default_factory=list)
    #: Records held on the netem deadline heap, sampled with ``in_flight``
    #: (empty without a decorator): "held by the adversary" as opposed to
    #: "unacked in a lane".
    netem_held_samples: List[int] = field(default_factory=list)
    elapsed_s: float = 0.0
    errors: List[str] = field(default_factory=list)
    interrupted: bool = False

    @property
    def partial(self) -> bool:
        """True iff the run ended without full, clean delivery."""
        return bool(self.errors) or self.interrupted or not self.report.ok

    @property
    def throughput(self) -> float:
        """Delivered messages per second of wall clock."""
        return self.report.delivered / self.elapsed_s if self.elapsed_s else 0.0

    def summary(self) -> str:
        """Human-readable run summary (printed by the CLI)."""
        status = "PARTIAL" if self.partial else "OK"
        lines = [
            f"runtime [{status}] window={self.spec.window} "
            f"transport={self.spec.transport} elapsed={self.elapsed_s:.2f}s "
            f"throughput={self.throughput:.0f} msg/s",
            self.report.summary(),
        ]
        if self.counters:
            lines.append(
                "counters: "
                + " ".join(f"{k}={v}" for k, v in sorted(self.counters.items()))
            )
        if self.transport_stats:
            lines.append(
                "transport: "
                + " ".join(
                    f"{k}={v}" for k, v in sorted(self.transport_stats.items())
                )
            )
        if self.netem_stats:
            lines.append(
                "netem: "
                + " ".join(f"{k}={v}" for k, v in sorted(self.netem_stats.items()))
            )
        for error in self.errors:
            lines.append(f"error: {error}")
        if self.interrupted:
            lines.append("run interrupted — results above are partial")
        return "\n".join(lines)

    def obs_rows(self) -> List[Dict[str, object]]:
        """Export the run as ``repro.obs/v1`` metric rows."""
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
        for key, value in self.counters.items():
            registry.counter(f"runtime_{key}").inc(value)
        for key, value in self.transport_stats.items():
            registry.counter(f"transport_{key}").inc(value)
        for key, value in self.netem_stats.items():
            registry.counter(key).inc(value)
        histograms = [
            ("runtime_hop_latency_s", self.hop_latencies),
            ("runtime_in_flight", self.in_flight_samples),
            ("runtime_batch_size", self.batch_sizes),
            ("runtime_ack_coalesce", self.ack_coalesce),
            ("runtime_rto_s", self.rto_samples),
            ("runtime_window_occupancy", self.window_samples),
            ("runtime_msg_latency_s", message_latencies(self.events)),
        ]
        if self.netem_held_samples:  # no decorator, no row
            histograms.append(("runtime_netem_held", self.netem_held_samples))
        for name, samples in histograms:
            histogram = registry.histogram(name)
            for sample in samples:
                histogram.observe(sample)
        registry.gauge("runtime_partial").set(1 if self.partial else 0)
        registry.gauge("runtime_elapsed_s").set(round(self.elapsed_s, 3))
        registry.gauge("runtime_throughput_msgs").set(round(self.throughput, 1))
        registry.counter("faults_injected_total").inc(len(self.fault_events))
        rows = registry.rows()
        from repro.obs.registry import SCHEMA

        for event in self.fault_events:
            row: Dict[str, object] = {"schema": SCHEMA, "kind": "fault_event"}
            row.update(event)
            rows.append(row)
        return rows


# -- in-process execution ------------------------------------------------------


def _merge_counts(into: Dict[str, int], add: Dict[str, int]) -> None:
    for key, value in add.items():
        into[key] = into.get(key, 0) + value


def _build_transport(spec: ClusterSpec, net: Network) -> Transport:
    if spec.transport == "local":
        base: Transport = LocalTransport(net)
    elif spec.transport == "tcp":
        base = TcpTransport(net, allocate_ports(net, base=spec.port_base))
    else:
        raise ConfigurationError(f"unknown transport {spec.transport!r}")
    netem = spec.build_netem()
    if netem is None and spec.chaos:
        # Chaos schedules drive edge state / knob changes through the
        # netem decorator, so a scheduled run always gets one — a noop
        # config until the first event fires.
        netem = NetemConfig()
    if netem is not None:
        return NetemTransport(
            base, netem, seed=spec.seed, max_batch=spec.max_batch
        )
    return base


async def _drive_chaos_event(
    event: Any,
    seed: int,
    net: Network,
    netem: NetemTransport,
    by_pid: Dict[int, RuntimeNode],
    fault_log: List[Dict[str, Any]],
) -> None:
    """Sleep until the event's window, apply it, undo it at window end.

    One task per event of a run seeded ``seed``; the scenario layer has
    already validated actions, nodes and edges and lowered ``at`` /
    ``until`` / ``period`` / ``down`` to seconds from run start.  A
    scheduled run always has a ``netem`` decorator; its ``force_down`` /
    ``force_up``, called only here, own edge state.
    """
    action, kwargs = event.action, event.kwargs
    hold = 0.0 if event.until is None else max(0.0, event.until - event.at)

    def log(kind: str, **detail: Any) -> None:
        fault_log.append(
            {
                "mono": time.monotonic(),
                "t": time.time(),
                "action": kind,
                **detail,
            }
        )

    await asyncio.sleep(event.at)
    if action == "flood":
        source, dest, count = kwargs["source"], kwargs["dest"], kwargs["count"]
        node = by_pid.get(source)
        if node is not None:
            for i in range(count):
                node.submit(f"{kwargs['payload']}-{event.index}-{i}", dest)
        log("flood", source=source, dest=dest, count=count)
    elif action == "crash":
        node = by_pid.get(kwargs["node"])
        if node is not None:
            node.pause()
            log("crash", node=kwargs["node"])
        await asyncio.sleep(hold)
        if node is not None:
            node.resume()
            log("restart", node=kwargs["node"])
    elif action == "partition":
        for u, v in kwargs["edges"]:
            netem.force_down(u, v)
        await asyncio.sleep(hold)
        for u, v in kwargs["edges"]:
            netem.force_up(u, v)
    elif action == "netem":
        previous = netem.config
        netem.reconfigure(NetemConfig.from_spec(kwargs))
        if event.until is not None:
            await asyncio.sleep(hold)
            netem.reconfigure(previous)
    else:  # link_flap, the last action the spec admits on this target
        rng = event_rng(seed, event.index)
        period, down = kwargs["period"], kwargs["down"]
        edges = [tuple(e) for e in kwargs.get("edges", ())] or list(net.edges)
        loop = asyncio.get_running_loop()
        end = loop.time() + hold
        while loop.time() < end:
            u, v = edges[rng.randrange(len(edges))]
            netem.force_down(u, v)
            await asyncio.sleep(min(down, max(0.0, end - loop.time())))
            netem.force_up(u, v)
            remainder = period - down
            if remainder > 0:
                await asyncio.sleep(min(remainder, max(0.0, end - loop.time())))


class _Progress:
    """Delivery progress shared between nodes and the monitor loop: the
    nodes' delivered hook, which sets :attr:`reached` the moment the
    ``target``-th delivery is reported."""

    __slots__ = ("delivered", "target", "reached")

    def __init__(self, target: int) -> None:
        self.delivered = 0
        self.target = target
        self.reached = asyncio.Event()
        if target == 0:
            self.reached.set()

    def __call__(self, count: int) -> None:
        self.delivered += count
        if self.delivered >= self.target:
            self.reached.set()


async def _run_nodes(
    spec: ClusterSpec,
    net: Network,
    transport: Transport,
    submissions: List[Tuple[int, int, Any, int]],
    progress: _Progress,
    result: RuntimeResult,
    nodes: List[RuntimeNode],
) -> None:
    """Host every node until ``progress`` signals its target reached and
    every chaos event has played out, or the deadline passes.  ``nodes``
    and ``result``'s samples and fault events fill as the run goes, so a
    partial result survives this coroutine dying."""
    params = spec.build_params()
    routing = StaticRouting(net)
    nodes.extend(
        RuntimeNode(p, net, routing, transport, params) for p in net.processors()
    )
    for node in nodes:
        node._delivered_hook = progress
    await transport.start()
    by_pid = {node.pid: node for node in nodes}
    for _, src, payload, dest in submissions:
        by_pid[src].submit(payload, dest)
    tasks = [asyncio.get_running_loop().create_task(node.run()) for node in nodes]
    netem = transport if isinstance(transport, NetemTransport) else None
    chaos_tasks = [
        asyncio.get_running_loop().create_task(
            _drive_chaos_event(
                event, spec.seed, net, netem, by_pid, result.fault_events
            )
        )
        for event in spec.chaos or ()
    ]
    deadline = time.monotonic() + spec.deadline
    reached = progress.reached
    try:
        while True:
            for task in tasks:
                if task.done() and task.exception() is not None:
                    raise task.exception()  # a node crashed: abort the run
            for task in chaos_tasks:
                if task.done() and task.exception() is not None:
                    raise task.exception()  # a chaos driver bug: surface it
            result.in_flight_samples.append(
                sum(node.core.in_flight() for node in nodes)
            )
            for node in nodes:
                result.window_samples.extend(node.core.window_occupancy())
            if netem is not None:
                result.netem_held_samples.append(netem.held())
            # Halt once delivered *and* the schedule has played out (the
            # simulate target's halt), or at the deadline.  The sample above
            # is then the closing one: a run shorter than the period still
            # records its lanes.
            playing = [task for task in chaos_tasks if not task.done()]
            if reached.is_set() and not playing:
                break
            if time.monotonic() >= deadline:
                break
            # Sample every 20 ms, but leave the moment the target is
            # reached or the last event ends: the end of run is signalled,
            # not polled.  ``asyncio.wait`` leaves the events running when
            # the timeout fires (``gather`` would cancel them).
            if not reached.is_set():
                try:
                    async with asyncio.timeout(0.02):
                        await reached.wait()
                except TimeoutError:
                    pass
            else:
                await asyncio.wait(playing, timeout=0.02)
        unfinished = [
            f"#{event.index} {event.action} at {event.at}s"
            for event, task in zip(spec.chaos or (), chaos_tasks)
            if not task.done()
        ]
        if unfinished:
            result.errors.append(
                f"deadline of {spec.deadline}s reached before chaos events "
                f"finished: {', '.join(unfinished)}"
            )
        # Grace period: let REL/RACK handshakes settle so the network is
        # actually empty, not merely delivered.
        grace_end = min(time.monotonic() + DRAIN_GRACE, deadline)
        while time.monotonic() < grace_end:
            if all(node.is_idle() for node in nodes):
                break
            await asyncio.sleep(spec.tick)
    finally:
        for node in nodes:
            node.stop()
        for task in chaos_tasks + tasks:
            task.cancel()
        for task in chaos_tasks + tasks:
            try:
                await task
            except (asyncio.CancelledError, Exception):  # noqa: BLE001
                pass
        await transport.close()


def _collect(
    result: RuntimeResult,
    nodes: List[RuntimeNode],
    transport: Optional[Transport],
) -> None:
    """Fold everything the nodes and their transport recorded into
    ``result`` — whatever exists, so a failed run still reports it."""
    for node in nodes:
        core = node.core
        result.events.extend(core.events)
        _merge_counts(result.counters, core.counters)
        _merge_counts(result.counters, node.counters)
        result.hop_latencies.extend(core.hop_latencies)
        result.rto_samples.extend(core.rto_samples)
        result.batch_sizes.extend(node.batch_sizes)
        result.ack_coalesce.extend(core.ack_coalesce)
    if transport is not None:
        _merge_counts(result.transport_stats, transport.stats)
        if isinstance(transport, NetemTransport):
            _merge_counts(result.netem_stats, transport.fault_stats)
            _merge_counts(result.transport_stats, transport.base.stats)
            result.fault_events.extend(transport.fault_events)
    result.fault_events.sort(key=lambda e: e.get("mono", 0.0))


# -- entry point ---------------------------------------------------------------


def run_cluster(spec: ClusterSpec) -> RuntimeResult:
    """Run one live cluster to completion (or graceful failure).

    Never hangs and never loses the partial picture: startup failures
    (e.g. a TCP port already in use), node crashes, deadline exhaustion
    and KeyboardInterrupt all come back as a :class:`RuntimeResult` with
    ``partial=True`` and the errors listed.
    """
    spec.build_netem()  # raises ConfigurationError on a netem knob out of range
    started = time.monotonic()
    result = RuntimeResult(spec=spec, report=ConformanceReport())
    net = spec.build_network()
    submissions = spec.build_submissions()
    target = len(submissions) + flood_total(spec.chaos or ())
    progress = _Progress(target)
    nodes: List[RuntimeNode] = []
    transport: Optional[Transport] = None
    try:
        transport = _build_transport(spec, net)
        asyncio.run(
            _run_nodes(spec, net, transport, submissions, progress, result, nodes)
        )
    except KeyboardInterrupt:
        result.interrupted = True
    except OSError as exc:
        result.errors.append(f"transport start failed: {exc}")
    except ConfigurationError:
        raise
    except Exception as exc:  # noqa: BLE001 - a node crash must not hang
        result.errors.append(f"{type(exc).__name__}: {exc}")
    else:
        if not progress.reached.is_set():
            result.errors.append(
                f"deadline of {spec.deadline}s reached with "
                f"{progress.delivered}/{target} deliveries"
            )
    result.elapsed_s = time.monotonic() - started
    _collect(result, nodes, transport)
    # A live cluster starts clean: whatever it delivers was generated.
    result.report = require_clean_start(
        check_events(result.events, expect_generated=target)
    )
    return result
