"""Cluster orchestration: run N live nodes from any repro topology.

Three execution shapes behind one entry point, :func:`run_cluster`:

* ``transport="local"`` — every node is an asyncio task in this process,
  frames move through in-memory queues;
* ``transport="tcp", procs=1`` — same process, but frames cross real
  loopback sockets with length-prefixed framing;
* ``transport="tcp", procs=N`` — the nodes are partitioned over ``N``
  worker *processes* (spawned, so no forked event-loop state), each
  hosting its share of TCP servers; a shared counter reports delivery
  progress and a shared event tells everyone to stop.

The cluster drives a :mod:`repro.app.workload` workload, records every
generate/deliver event for the conformance oracle
(:mod:`repro.runtime.conformance`), and exports per-hop latency
histograms, retry counts and in-flight gauges as ``repro.obs/v1`` rows.

Failure modes are first-class: a port already in use, a worker process
dying mid-run, and KeyboardInterrupt all end the run with a *partial*
:class:`RuntimeResult` (``partial=True``, errors recorded) instead of a
hung event loop — the CLI turns that into a summary plus a nonzero exit.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.app.workload import hotspot_per_source, workload_by_name
from repro.errors import ConfigurationError
from repro.network.graph import Network
from repro.network.topologies import topology_by_name
from repro.routing.static import StaticRouting
from repro.runtime.conformance import (
    ConformanceReport,
    RuntimeEvent,
    check_events,
    message_latencies,
)
from repro.runtime.netem import NetemConfig, NetemTransport
from repro.runtime.hop import RuntimeParams
from repro.runtime.node import RuntimeNode
from repro.runtime.sharding import partition as shard_destinations
from repro.runtime.transport import (
    LocalTransport,
    TcpTransport,
    Transport,
    allocate_ports,
)

@dataclass
class ClusterSpec:
    """Everything needed to run one live cluster (picklable)."""

    topology: Dict[str, Any]
    messages: int = 100
    seed: int = 0
    #: Forwarding protocol the cluster emulates (registry name).  The live
    #: hop protocol is the same DATA/ACK/REL/RACK lane machinery for every
    #: family member; what differs is the buffer budget, enforced through
    #: the protocol's ``runtime_window_cap`` — SSMFP's two buffers per hop
    #: admit pipelined lanes, SSMFP2's single fused buffer caps every lane
    #: at window 1 (stop-and-wait).
    protocol: str = "ssmfp"
    transport: str = "local"            #: "local" | "tcp"
    procs: int = 1                      #: >1 => multi-process (tcp only)
    workload: str = "uniform"
    netem: Optional[Dict[str, Any]] = None
    deadline: float = 60.0              #: hard wall-clock budget (seconds)
    drain_grace: float = 2.0            #: extra wait for handshakes to settle
    port_base: int = 0                  #: 0 = auto-allocate free ports
    tick: float = 0.005
    retry_base: float = 0.05
    retry_cap: float = 0.4
    window: int = 32                    #: in-flight DATA per (edge, dest) lane
    max_batch: int = 64                 #: max records packed into one frame
    #: Test hook: (worker_index, seconds) — that worker hard-exits mid-run.
    kill_worker_after: Optional[Tuple[int, float]] = None
    #: Timed chaos events lowered onto the wall clock by
    #: :mod:`repro.scenario` — dicts ``{"action", "t0", "t1", ...}``
    #: (seconds from run start).  Driven by per-event asyncio tasks in the
    #: hosting process; single-process runs only (a multi-process cluster
    #: has no one place to pause a node or flip a shared netem knob).
    chaos: Optional[List[Dict[str, Any]]] = None

    def build_network(self) -> Network:
        return topology_by_name(
            self.topology["name"], **self.topology.get("kwargs", {})
        )

    def build_params(self) -> RuntimeParams:
        from repro.core.registry import resolve

        window = self.window
        cap = resolve(self.protocol).runtime_window_cap
        if cap is not None:
            window = min(window, cap)
        return RuntimeParams(
            tick=self.tick,
            retry_base=self.retry_base,
            retry_cap=self.retry_cap,
            window=window,
            max_batch=self.max_batch,
        )

    def build_submissions(self) -> List[Tuple[int, int, Any, int]]:
        net = self.build_network()
        # ``messages`` is the cluster's one size field: the workload kwargs
        # it stands for, per workload the cluster can size that way.
        sized = {
            "uniform": {"count": self.messages},
            "hotspot": {
                "dest": 0,
                "per_source": hotspot_per_source(self.messages, net.n),
            },
        }
        if self.workload not in sized:
            raise ConfigurationError(
                f"unknown workload {self.workload!r} for a live cluster, "
                f"which sizes its workload from 'messages' alone; "
                f"supported: {sorted(sized)}"
            )
        wl = workload_by_name(
            self.workload, net.n, self.seed, **sized[self.workload]
        )
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
    #: Mono-stamped fault transitions (netem flaps/partitions, crashes,
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

    @property
    def records_dropped(self) -> int:
        """Hop-protocol records discarded by the transport layer (edge-queue
        overflow against a stalled peer, frames for unknown inboxes).  The
        windowed protocol retransmits, so drops cost latency rather than
        messages — but they are never silent."""
        return self.transport_stats.get("records_dropped", 0)

    def summary(self) -> str:
        """Human-readable run summary (printed by the CLI)."""
        status = "PARTIAL" if self.partial else "OK"
        lines = [
            f"runtime [{status}] protocol={self.spec.protocol} "
            f"transport={self.spec.transport} "
            f"procs={self.spec.procs} elapsed={self.elapsed_s:.2f}s "
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


def _build_transport(
    spec: ClusterSpec,
    net: Network,
    local_pids: Optional[Tuple[int, ...]] = None,
    ports: Optional[Dict[int, Tuple[str, int]]] = None,
    netem_seed: int = 0,
) -> Transport:
    if spec.transport == "local":
        base: Transport = LocalTransport(net)
    elif spec.transport == "tcp":
        ports = ports or allocate_ports(net, base=spec.port_base)
        base = TcpTransport(net, ports, local_pids=local_pids)
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
            base, netem, seed=spec.seed + netem_seed, max_batch=spec.max_batch
        )
    return base


def chaos_extra_messages(chaos: Optional[List[Dict[str, Any]]]) -> int:
    """Messages that scheduled ``flood`` events will inject on top of the
    workload — they count toward the delivery target and the conformance
    oracle's expected-generated total."""
    return sum(
        int(event.get("count", 0))
        for event in chaos or ()
        if event.get("action") == "flood"
    )


async def _drive_chaos_event(
    event: Dict[str, Any],
    index: int,
    spec: ClusterSpec,
    net: Network,
    transport: Transport,
    by_pid: Dict[int, RuntimeNode],
    fault_log: List[Dict[str, Any]],
) -> None:
    """Sleep until the event's window, apply it, undo it at window end.

    One task per event; the scenario layer has already validated actions,
    nodes and edges and lowered ``at``/``until`` to seconds (``t0``/``t1``
    from run start).
    """
    import random as _random

    netem = transport if isinstance(transport, NetemTransport) else None
    action = event["action"]
    t0 = float(event.get("t0", 0.0))
    t1 = event.get("t1")
    hold = max(0.0, float(t1) - t0) if t1 is not None else None

    def log(kind: str, **detail: Any) -> None:
        fault_log.append(
            {
                "mono": time.monotonic(),
                "t": time.time(),
                "action": kind,
                **detail,
            }
        )

    await asyncio.sleep(t0)
    if action == "flood":
        node = by_pid.get(int(event["source"]))
        count = int(event.get("count", 0))
        if node is not None:
            prefix = event.get("payload", "flood")
            for i in range(count):
                node.submit(f"{prefix}-{index}-{i}", int(event["dest"]))
        log("flood", source=event["source"], dest=event["dest"], count=count)
    elif action == "crash":
        node = by_pid.get(int(event["node"]))
        if node is not None:
            node.pause()
            log("crash", node=event["node"])
        await asyncio.sleep(hold or 0.0)
        if node is not None:
            node.resume()
            log("restart", node=event["node"])
    elif action == "partition":
        assert netem is not None
        for u, v in event["edges"]:
            netem.force_down(int(u), int(v))
        await asyncio.sleep(hold or 0.0)
        for u, v in event["edges"]:
            netem.force_up(int(u), int(v))
    elif action == "netem":
        assert netem is not None
        previous = netem.config
        netem.reconfigure(NetemConfig.from_spec(event["config"]))
        if hold is not None:
            await asyncio.sleep(hold)
            netem.reconfigure(previous)
    elif action == "link_flap":
        assert netem is not None
        rng = _random.Random(int(event.get("seed", 0)))
        period = max(float(event.get("period", 1.0)), 0.01)
        down = min(max(float(event.get("down", 0.05)), 0.01), period)
        edges = [tuple(e) for e in event.get("edges") or []] or list(net.edges)
        loop = asyncio.get_running_loop()
        end = loop.time() + (hold if hold is not None else 0.0)
        while loop.time() < end:
            u, v = edges[rng.randrange(len(edges))]
            netem.force_down(int(u), int(v))
            await asyncio.sleep(min(down, max(0.0, end - loop.time())))
            netem.force_up(int(u), int(v))
            remainder = period - down
            if remainder > 0:
                await asyncio.sleep(min(remainder, max(0.0, end - loop.time())))
    else:  # pragma: no cover - the scenario layer validates actions
        raise ConfigurationError(f"unknown chaos action {action!r}")


class _Progress:
    """Delivery progress shared between nodes and the monitor loop: the
    nodes' delivered hook, which sets :attr:`reached` the moment the
    ``target``-th delivery is reported (never, for a negative target)."""

    __slots__ = ("delivered", "target", "reached")

    def __init__(self, target: int = -1) -> None:
        self.delivered = 0
        self.target = target
        self.reached = asyncio.Event()
        if target == 0:
            self.reached.set()

    def __call__(self, count: int) -> None:
        self.delivered += count
        if 0 <= self.target <= self.delivered:
            self.reached.set()


async def _run_nodes(
    spec: ClusterSpec,
    net: Network,
    transport: Transport,
    submissions: List[Tuple[int, int, Any, int]],
    holder: Dict[str, Any],
    progress: _Progress,
    stop_check=None,
) -> None:
    """Host a set of nodes until ``progress`` signals its target reached,
    the deadline passes, or ``stop_check`` fires.  ``holder`` keeps the
    live objects reachable for partial-result assembly even if this
    coroutine dies."""
    params = spec.build_params()
    routing = StaticRouting(net)
    local_pids = getattr(transport, "local_pids", None)
    pids = list(local_pids) if local_pids is not None else list(net.processors())
    nodes = [RuntimeNode(p, net, routing, transport, params) for p in pids]
    for node in nodes:
        node._delivered_hook = progress
    holder["nodes"] = nodes
    holder["transport"] = transport
    await transport.start()
    holder["started"] = True
    by_pid = {node.pid: node for node in nodes}
    for _, src, payload, dest in submissions:
        if src in by_pid:
            by_pid[src].submit(payload, dest)
    tasks = [asyncio.get_running_loop().create_task(node.run()) for node in nodes]
    holder["tasks"] = tasks
    chaos_tasks: List["asyncio.Task"] = []
    if spec.chaos:
        fault_log = holder.setdefault("fault_events", [])
        chaos_tasks = [
            asyncio.get_running_loop().create_task(
                _drive_chaos_event(
                    dict(event), index, spec, net, transport, by_pid, fault_log
                )
            )
            for index, event in enumerate(spec.chaos)
        ]
    deadline = time.monotonic() + spec.deadline
    netem = transport if isinstance(transport, NetemTransport) else None
    reached = progress.reached
    try:
        while time.monotonic() < deadline and not reached.is_set():
            if stop_check is not None and stop_check():
                break
            for task in tasks:
                if task.done() and task.exception() is not None:
                    raise task.exception()  # a node crashed: abort the run
            for task in chaos_tasks:
                if task.done() and task.exception() is not None:
                    raise task.exception()  # a chaos driver bug: surface it
            holder.setdefault("in_flight", []).append(
                sum(node.core.in_flight() for node in nodes)
            )
            window = holder.setdefault("window_samples", [])
            for node in nodes:
                window.extend(node.core.window_occupancy())
            if netem is not None:
                holder.setdefault("netem_held", []).append(netem.held())
            # Sample every 20 ms, but leave the moment the target is
            # reached: the end of run is signalled, not polled.
            try:
                async with asyncio.timeout(0.02):
                    await reached.wait()
            except TimeoutError:
                pass
        # Grace period: let REL/RACK handshakes settle so the network is
        # actually empty, not merely delivered.
        grace_end = min(time.monotonic() + spec.drain_grace, deadline)
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


#: :class:`RuntimeResult` fields a harvest carries, by how they merge.
_COUNT_FIELDS = ("counters", "transport_stats", "netem_stats")
_SAMPLE_FIELDS = (
    "events", "hop_latencies", "rto_samples", "batch_sizes", "ack_coalesce",
    "fault_events", "in_flight_samples", "window_samples", "netem_held_samples",
)


def _harvest(holder: Dict[str, Any]) -> Dict[str, Any]:
    """Everything the hosted nodes and their transport recorded, merged
    into one picklable dict keyed by :class:`RuntimeResult` field (a
    worker ships it; the parent absorbs it)."""
    harvest: Dict[str, Any] = {name: {} for name in _COUNT_FIELDS}
    harvest.update({name: [] for name in _SAMPLE_FIELDS})
    harvest["fault_events"].extend(holder.get("fault_events", []))
    harvest["in_flight_samples"] = holder.get("in_flight", [])
    harvest["window_samples"] = holder.get("window_samples", [])
    harvest["netem_held_samples"] = holder.get("netem_held", [])
    for node in holder.get("nodes", []):
        core = node.core
        harvest["events"].extend(core.events)
        _merge_counts(harvest["counters"], core.counters)
        _merge_counts(harvest["counters"], node.counters)
        harvest["hop_latencies"].extend(core.hop_latencies)
        harvest["rto_samples"].extend(core.rto_samples)
        harvest["batch_sizes"].extend(node.batch_sizes)
        harvest["ack_coalesce"].extend(core.ack_coalesce)
    transport = holder.get("transport")
    if transport is not None:
        _merge_counts(harvest["transport_stats"], transport.stats)
        if isinstance(transport, NetemTransport):
            _merge_counts(harvest["netem_stats"], transport.fault_stats)
            _merge_counts(harvest["transport_stats"], transport.base.stats)
            harvest["fault_events"].extend(transport.fault_events)
    return harvest


def _absorb(result: RuntimeResult, harvest: Dict[str, Any]) -> None:
    """Fold one :func:`_harvest` into the run's result."""
    for name in _COUNT_FIELDS:
        _merge_counts(getattr(result, name), harvest[name])
    for name in _SAMPLE_FIELDS:
        getattr(result, name).extend(harvest[name])
    result.fault_events.sort(key=lambda e: e.get("mono", 0.0))


# -- multi-process execution ---------------------------------------------------


def _worker_main(worker_args: Dict[str, Any], stop_event, delivered, result_q) -> None:
    """Entry point of one spawned worker: host a node subset over TCP."""
    spec: ClusterSpec = worker_args["spec"]
    pids: Tuple[int, ...] = tuple(worker_args["pids"])
    ports = worker_args["ports"]
    submissions = worker_args["submissions"]
    index = worker_args["index"]
    net = spec.build_network()

    class _SharedProgress(_Progress):
        def __call__(self, count: int) -> None:
            super().__call__(count)
            with delivered.get_lock():
                delivered.value += count

    progress = _SharedProgress()
    holder: Dict[str, Any] = {}
    error: Optional[str] = None

    async def body() -> None:
        transport = _build_transport(
            spec, net, local_pids=pids, ports=ports, netem_seed=1000 * (index + 1)
        )
        if spec.kill_worker_after is not None and spec.kill_worker_after[0] == index:
            asyncio.get_running_loop().call_later(
                spec.kill_worker_after[1], os._exit, 3
            )
        # Workers never know the global target (their progress never
        # signals): the parent tells them to stop.
        await _run_nodes(
            spec, net, transport, submissions, holder, progress,
            stop_check=stop_event.is_set,
        )

    try:
        asyncio.run(body())
    except Exception as exc:  # noqa: BLE001 - shipped to the parent
        error = f"{type(exc).__name__}: {exc}"
    payload = _harvest(holder)
    payload.update(index=index, pids=pids, error=error)
    try:
        result_q.put(payload)
    except Exception:  # noqa: BLE001 - parent may already be gone
        pass


def _run_multiprocess(spec: ClusterSpec, result: RuntimeResult) -> None:
    import multiprocessing as mp

    net = spec.build_network()
    if spec.procs > net.n:
        raise ConfigurationError(
            f"more worker processes ({spec.procs}) than nodes ({net.n})"
        )
    submissions = spec.build_submissions()
    target = len(submissions)
    ports = allocate_ports(net, base=spec.port_base)
    # Destination sharding by consistent hash: worker i hosts exactly the
    # nodes (= destinations) its ring shard owns, so the per-destination
    # state of the whole cluster is partitioned disjointly, and changing
    # the worker count relocates only ~1/procs of the destinations.
    groups = shard_destinations(net.processors(), spec.procs)
    ctx = mp.get_context("spawn")
    stop_event = ctx.Event()
    delivered = ctx.Value("i", 0)
    result_q = ctx.Queue()
    workers = []
    for index, pids in enumerate(groups):
        hosted = set(pids)
        worker_args = {
            "spec": spec,
            "pids": tuple(pids),
            "ports": ports,
            "submissions": [s for s in submissions if s[1] in hosted],
            "index": index,
        }
        proc = ctx.Process(
            target=_worker_main,
            args=(worker_args, stop_event, delivered, result_q),
            daemon=True,
        )
        proc.start()
        workers.append(proc)
    started = time.monotonic()
    deadline = started + spec.deadline
    try:
        while time.monotonic() < deadline:
            if delivered.value >= target:
                break
            dead = [
                (i, p.exitcode)
                for i, p in enumerate(workers)
                if p.exitcode is not None and p.exitcode != 0
            ]
            if dead:
                for index, code in dead:
                    result.errors.append(
                        f"worker {index} (pids {groups[index]}) died "
                        f"with exit code {code}"
                    )
                break
            time.sleep(0.05)
        else:
            result.errors.append(
                f"deadline of {spec.deadline}s reached with "
                f"{delivered.value}/{target} deliveries"
            )
    except KeyboardInterrupt:
        result.interrupted = True
    finally:
        # Drain grace, then stop everyone and harvest whatever exists.
        if not result.errors and not result.interrupted:
            time.sleep(min(spec.drain_grace, max(0.0, deadline - time.monotonic())))
        stop_event.set()
        harvested = 0
        harvest_deadline = time.monotonic() + 10.0
        while harvested < len(workers) and time.monotonic() < harvest_deadline:
            try:
                payload = result_q.get(timeout=0.25)
            except Exception:  # noqa: BLE001 - queue.Empty and EOF alike
                if all(p.exitcode is not None for p in workers):
                    break
                continue
            harvested += 1
            if payload.get("error"):
                result.errors.append(
                    f"worker {payload['index']}: {payload['error']}"
                )
            _absorb(result, payload)
        for proc in workers:
            proc.join(timeout=2.0)
        for index, proc in enumerate(workers):
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
                result.errors.append(f"worker {index} had to be terminated")
        if harvested < len(workers):
            missing = len(workers) - harvested
            result.errors.append(
                f"{missing} worker(s) returned no results — counts are partial"
            )
    result.report = check_events(result.events, expect_generated=target)


# -- entry point ---------------------------------------------------------------


def run_cluster(spec: ClusterSpec) -> RuntimeResult:
    """Run one live cluster to completion (or graceful failure).

    Never hangs and never loses the partial picture: startup failures
    (e.g. a TCP port already in use), node crashes, dead worker processes,
    deadline exhaustion and KeyboardInterrupt all come back as a
    :class:`RuntimeResult` with ``partial=True`` and the errors listed.
    """
    if spec.procs > 1 and spec.transport != "tcp":
        raise ConfigurationError("multi-process clusters require transport='tcp'")
    if spec.procs < 1:
        raise ConfigurationError("procs must be >= 1")
    if spec.chaos and spec.procs > 1:
        raise ConfigurationError(
            "chaos schedules require procs=1 (a multi-process cluster has "
            "no single place to pause a node or reconfigure the transport)"
        )
    from repro.core.registry import resolve

    resolve(spec.protocol)  # raises ConfigurationError on unknown names
    spec.build_netem()  # ... and on a netem knob out of range
    started = time.monotonic()
    result = RuntimeResult(spec=spec, report=ConformanceReport())
    if spec.procs > 1:
        _run_multiprocess(spec, result)
        result.elapsed_s = time.monotonic() - started
        return result

    net = spec.build_network()
    submissions = spec.build_submissions()
    target = len(submissions) + chaos_extra_messages(spec.chaos)
    holder: Dict[str, Any] = {}
    progress = _Progress(target)
    try:
        transport = _build_transport(spec, net)
        asyncio.run(
            _run_nodes(spec, net, transport, submissions, holder, progress)
        )
    except KeyboardInterrupt:
        result.interrupted = True
    except OSError as exc:
        result.errors.append(f"transport start failed: {exc}")
    except ConfigurationError:
        raise
    except Exception as exc:  # noqa: BLE001 - a node crash must not hang
        result.errors.append(f"{type(exc).__name__}: {exc}")
    result.elapsed_s = time.monotonic() - started
    _absorb(result, _harvest(holder))
    result.report = check_events(result.events, expect_generated=target)
    return result
