"""Lowering a scenario onto the simulator step clock.

The schedule's abstract time units become step numbers
(``clock.sim_steps_per_unit``); every event turns into point
*applications* on the step axis plus, for ``crash``, a masking interval
on the daemon:

* ``corrupt_routing`` — :func:`~repro.routing.corruption.corrupt_random`
  at the burst steps (one burst, or every ``period`` units in a window);
* ``garbage`` — invalid messages planted into **currently empty** buffer
  slots (the paper's fault model corrupts state, it never destroys
  in-flight valid traffic — overwriting an occupied slot would);
* ``link_flap`` / ``partition`` — the routing entries that *use* the
  affected edges are re-pointed at other neighbors (a severed link in
  the state model is sustained misrouting: there are no channels to cut,
  so traffic that would cross the edge is sent the wrong way until the
  self-stabilizing routing protocol repairs around it, exactly the
  composition the paper proves against);  partitions re-apply the sever
  on every unit boundary of their window, then stop (heal) and let the
  routing protocol re-converge;
* ``crash`` — a fail-pause: the daemon is wrapped to never select the
  crashed processor while its window is open.  One documented wart: the
  central-daemon axiom requires selecting *some* enabled processor each
  step, so if **only** crashed processors are enabled the mask yields
  (the run would otherwise be illegal); scenario specs that crash every
  live participant get weaker crash semantics rather than an error;
* ``flood`` — same-payload submissions handed straight to the higher
  layer at the scheduled step.

The drive loop **is** :meth:`repro.sim.runner.Simulation.run`; the
schedule hooks into it in three places.  ``before_step`` applies every
batch that is due at the step about to execute; ``on_idle`` fires the
earliest pending batch when the network went quiet before it was due;
and the halt is ``delivered_and_drained`` *and* schedule exhausted.  With
an empty schedule all three are vacuous — the differential test pins
that the fingerprint (steps, rounds, rule counts, delivery counts) is
bit-identical to a plain run, which is what lets ``repro record``/``repro
verify`` (:mod:`repro.scenario.record`) fingerprint any scenario through
this one loop.
"""

from __future__ import annotations

import random
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.app.workload import event_rng, flood_total
from repro.core.corruption import plant_invalid_message
from repro.errors import ConfigurationError
from repro.obs import MessageTracer, MetricsRegistry
from repro.routing.corruption import corrupt_random
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.scenario.result import ScenarioResult, evaluate_pass
from repro.scenario.spec import ScenarioSpec
from repro.sim.runner import Simulation, delivered_and_drained
from repro.statemodel.daemon import Daemon


class _CrashMaskDaemon(Daemon):
    """Wraps the configured daemon, hiding crashed processors from it."""

    name = "crash-mask"

    def __init__(
        self, base: Daemon, intervals: List[Tuple[int, int, int]]
    ) -> None:
        self._base = base
        self._intervals = intervals

    def select(self, enabled, step):
        crashed = {
            node
            for start, end, node in self._intervals
            if start <= step < end
        }
        if crashed:
            filtered = {
                p: actions for p, actions in enabled.items() if p not in crashed
            }
            if filtered:
                return self._base.select(filtered, step)
            # Only crashed processors are enabled: the daemon must still
            # select someone (documented wart — see module docstring).
        return self._base.select(enabled, step)


def _sever_edges(
    routing: SelfStabilizingBFSRouting,
    edges: List[Tuple[int, int]],
    rng: random.Random,
) -> int:
    """Re-point every routing entry that crosses ``edges`` at some other
    neighbor (with a corrupted distance) — the state-model analog of the
    link going down.  Returns entries hit."""
    net = routing.network
    hits = 0
    for u, v in edges:
        for a, b in ((u, v), (v, u)):
            alternatives = [q for q in net.neighbors(a) if q != b]
            if not alternatives:
                continue  # degree-1 node: nowhere else to point
            for d in net.processors():
                if d == a:
                    continue
                if routing.next_hop(a, d) == b:
                    hop = rng.choice(alternatives)  # drawn before dist
                    routing.set_entry(d, a, rng.randrange(net.n), hop)
                    hits += 1
    return hits


def _plant_mid_run_garbage(
    forwarding, rng: random.Random, fraction: float
) -> int:
    """Plant invalid messages into *empty* slots only: unlike the initial
    configuration (where everything is fair game), a mid-run fault that
    overwrote an occupied buffer would destroy in-flight valid traffic —
    outside the paper's fault model, and a strict-ledger violation."""
    net = forwarding.net
    planted = 0
    for d in net.processors():
        for p in net.processors():
            for kind in forwarding.buffer_kinds:
                if rng.random() >= fraction:
                    continue
                get = forwarding.bufs.get_r if kind == "R" else forwarding.bufs.get_e
                if get(d, p) is not None:
                    continue
                last = rng.choice([p] + list(net.neighbors(p)))
                color = rng.randrange(forwarding.delta + 1)
                plant_invalid_message(
                    forwarding, d, p, kind, f"g{rng.randrange(3)}", last, color
                )
                planted += 1
    return planted


def _lower_schedule(
    spec: ScenarioSpec, simulation: Simulation
) -> Tuple[Dict[int, List[Callable[[], Dict[str, Any]]]], List[Tuple[int, int, int]]]:
    """Turn the validated schedule into step-indexed application thunks
    plus crash-mask intervals.  Each thunk applies one fault and returns
    the detail dict for the fault-event row."""
    applications: Dict[int, List[Callable[[], Dict[str, Any]]]] = {}
    crash_intervals: List[Tuple[int, int, int]] = []
    routing = simulation.routing
    needs_selfstab = {"corrupt_routing", "link_flap", "partition"}

    def add(step: int, thunk: Callable[[], Dict[str, Any]]) -> None:
        applications.setdefault(step, []).append(thunk)

    for event in spec.schedule:
        if event.action in needs_selfstab and not isinstance(
            routing, SelfStabilizingBFSRouting
        ):
            raise ConfigurationError(
                f"schedule[{event.index}]: action {event.action!r} needs "
                f"routing mode 'selfstab' (static tables cannot be faulted)"
            )
        rng = event_rng(spec.seed, event.index)
        event = event.on_clock(spec.steps_at)
        start, end = event.at, event.until

        if event.action == "corrupt_routing":
            fraction = float(event.kwargs["fraction"])
            pulse_steps = [start]
            if end is not None:
                stride = max(1, event.kwargs["period"])
                pulse_steps = list(range(start, end, stride))
            for step in pulse_steps:
                def _corrupt(fraction=fraction, rng=rng):
                    hit = corrupt_random(
                        routing, seed=rng.randrange(1 << 30), fraction=fraction
                    )
                    return {"action": "corrupt_routing",
                            "fraction": fraction, "entries_hit": hit}
                add(step, _corrupt)
        elif event.action == "garbage":
            fraction = float(event.kwargs["fraction"])

            def _garbage(fraction=fraction, rng=rng):
                planted = _plant_mid_run_garbage(
                    simulation.forwarding, rng, fraction
                )
                return {"action": "garbage",
                        "fraction": fraction, "planted": planted}
            add(start, _garbage)
        elif event.action == "link_flap":
            stride = max(1, event.kwargs["period"])
            edges = [tuple(e) for e in event.kwargs.get("edges") or []]
            pool = edges or list(simulation.net.edges)
            for step in range(start, end, stride):  # type: ignore[arg-type]
                def _link_flap(pool=pool, rng=rng):
                    edge = pool[rng.randrange(len(pool))]
                    hit = _sever_edges(routing, [edge], rng)
                    return {"action": "link_flap",
                            "edge": list(edge), "entries_hit": hit}
                add(step, _link_flap)
        elif event.action == "partition":
            cut = [tuple(e) for e in event.kwargs["edges"]]
            stride = max(1, spec.sim_steps_per_unit)
            for step in range(start, end, stride):  # type: ignore[arg-type]
                def _partition(cut=cut, rng=rng):
                    hit = _sever_edges(routing, cut, rng)
                    return {"action": "partition",
                            "edges": [list(e) for e in cut],
                            "entries_hit": hit}
                add(step, _partition)
        elif event.action == "crash":
            crash_intervals.append((start, end, event.kwargs["node"]))  # type: ignore[arg-type]

            def _crash(node=event.kwargs["node"], start=start, end=end):
                return {"action": "crash", "node": node,
                        "until_step": end}
            add(start, _crash)
        elif event.action == "flood":
            source = event.kwargs["source"]
            dest = event.kwargs["dest"]
            count = event.kwargs["count"]
            payload = event.kwargs["payload"]

            def _flood(source=source, dest=dest, count=count, payload=payload):
                for _ in range(count):
                    simulation.hl.submit(
                        source, payload, dest, step=simulation.sim.step_count
                    )
                return {"action": "flood", "source": source,
                        "dest": dest, "count": count}
            add(start, _flood)
        else:  # pragma: no cover - spec validation rejects these
            raise ConfigurationError(
                f"action {event.action!r} cannot lower to the simulator"
            )
    return applications, crash_intervals


def run_sim_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Compile and run one scenario on the simulator."""
    started = time.perf_counter()
    registry = MetricsRegistry()
    tracer = MessageTracer()
    simulation = spec.build_simulation(obs=registry, tracer=tracer)
    applications, crash_intervals = _lower_schedule(spec, simulation)
    if crash_intervals:
        simulation.sim.daemon = _CrashMaskDaemon(
            simulation.sim.daemon, crash_intervals
        )
    pending = deque(sorted(applications.items()))
    fault_events: List[Dict[str, Any]] = []

    def apply_next_batch() -> None:
        for thunk in pending.popleft()[1]:
            detail = thunk()
            action = detail.pop("action")
            step = simulation.sim.step_count
            fault_events.append({"action": action, "step": step, **detail})
            registry.counter("faults_injected_total", action=action).inc()
            tracer.record_fault(action, detail, step=step)

    def apply_due(_: Simulation) -> None:
        while pending and pending[0][0] <= simulation.sim.step_count:
            apply_next_batch()

    def apply_earliest(_: Simulation) -> bool:
        # The network idled before the next scheduled fault: skip the dead
        # time (the step clock cannot advance through a terminal
        # configuration) and fire the earliest batch now — what the loop's
        # own workload fast-forward does for submissions.
        if not pending:
            return False
        apply_next_batch()
        return True

    max_steps = int(spec.budgets["max_steps"])
    halted = simulation.run(
        max_steps,
        halt=lambda sim: delivered_and_drained(sim) and not pending,
        raise_on_limit=False,
        before_step=apply_due,
        on_idle=apply_earliest,
    ).halted_by_predicate

    elapsed = round(time.perf_counter() - started, 3)
    ledger = simulation.ledger
    metrics: Dict[str, Any] = {
        "steps": simulation.sim.step_count,
        "rounds": simulation.sim.round_count,
        "rule_counts": simulation.sim.rule_counts,
        "generated": ledger.generated_count,
        "delivered": ledger.valid_delivered_count,
        "invalid_delivered": ledger.invalid_delivery_count,
        "routing_correct": bool(simulation.routing.is_correct()),
        "duplicates": 0,  # a strict ledger raises on duplicate delivery
        "expected": simulation.workload.size + flood_total(spec.schedule),
        "elapsed_s": elapsed,
        "faults_injected": len(fault_events),
    }
    failures = evaluate_pass(spec.pass_criteria, metrics)
    if not halted and failures:
        failures.append(
            f"budget: halt condition not reached within "
            f"{max_steps} steps"
        )
    obs_rows = registry.rows() + tracer.to_rows()
    return ScenarioResult(
        name=spec.name,
        target="simulate",
        protocol=spec.protocol,
        ok=not failures,
        failures=failures,
        metrics=metrics,
        fault_events=fault_events,
        obs_rows=obs_rows,
    )
