"""Lowering a scenario onto the live-runtime wall clock.

The schedule's abstract time units become seconds from run start
(``clock.runtime_s_per_unit``); each event becomes one chaos dict on
:attr:`~repro.runtime.cluster.ClusterSpec.chaos`, driven by a per-event
asyncio task inside the cluster (:mod:`repro.runtime.cluster`):

* ``link_flap`` / ``partition`` — :class:`NetemTransport` edges forced
  down and back up (the transport logs every transition, mono-stamped);
* ``crash`` — :meth:`RuntimeNode.pause`/``resume`` (fail-pause: lane
  state survives, peers retransmit into the frozen inbox);
* ``flood`` — live ``submit`` calls on the source node (counted into the
  conformance oracle's expected-generated total);
* ``netem`` — :meth:`NetemTransport.reconfigure` for the window.

The conformance oracle then re-verifies exactly-once + per-pair FIFO
delivery over the whole faulted run — that verdict *is* the scenario's
primary pass criterion.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.scenario.result import ScenarioResult, evaluate_pass
from repro.scenario.spec import ScenarioSpec
from repro.sim.stats import percentile


def lower_runtime_schedule(spec: ScenarioSpec) -> List[Dict[str, Any]]:
    """The schedule as wall-clock chaos dicts for ``ClusterSpec.chaos``."""
    chaos: List[Dict[str, Any]] = []
    for event in spec.schedule:
        lowered: Dict[str, Any] = {
            "action": event.action,
            "t0": round(spec.seconds_at(event.at), 6),
        }
        if event.until is not None:
            lowered["t1"] = round(spec.seconds_at(event.until), 6)
        if event.action == "link_flap":
            lowered["period"] = spec.seconds_at(event.kwargs["period"])
            lowered["down"] = spec.seconds_at(event.kwargs["down"])
            if event.kwargs.get("edges") is not None:
                lowered["edges"] = [list(e) for e in event.kwargs["edges"]]
            lowered["seed"] = spec.seed * 1_000_003 + event.index
        elif event.action == "partition":
            lowered["edges"] = [list(e) for e in event.kwargs["edges"]]
        elif event.action == "crash":
            lowered["node"] = event.kwargs["node"]
        elif event.action == "flood":
            lowered.update(
                source=event.kwargs["source"],
                dest=event.kwargs["dest"],
                count=event.kwargs["count"],
                payload=event.kwargs["payload"],
            )
        elif event.action == "netem":
            lowered["config"] = dict(event.kwargs)
        else:  # pragma: no cover - spec validation rejects these
            from repro.errors import ConfigurationError

            raise ConfigurationError(
                f"action {event.action!r} cannot lower to the runtime"
            )
        chaos.append(lowered)
    return chaos


#: ``[runtime]`` keys passed on to :class:`ClusterSpec`, each with its
#: coercion; a key the spec does not set keeps ClusterSpec's own default.
_CLUSTER_KEYS = {
    "transport": str, "drain_grace": float, "port_base": int,
    "tick": float, "window": int, "max_batch": int,
}


def build_cluster_spec(spec: ScenarioSpec):
    """The :class:`~repro.runtime.cluster.ClusterSpec` for this scenario."""
    from repro.core.registry import runtime_window
    from repro.runtime.cluster import ClusterSpec

    extras = spec.runtime_extras
    cluster = ClusterSpec(
        topology=dict(spec.topology),
        messages=spec.messages(),
        seed=spec.seed,
        workload=spec.workload["name"],
        netem=extras.get("netem"),
        deadline=float(spec.budgets["wall_s"]),
        chaos=lower_runtime_schedule(spec),
        **{
            key: coerce(extras[key])
            for key, coerce in _CLUSTER_KEYS.items()
            if key in extras
        },
    )
    cluster.window = runtime_window(spec.protocol, cluster.window)
    return cluster


def run_runtime_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Compile and run one scenario on the live runtime."""
    from repro.runtime.cluster import run_cluster
    from repro.runtime.conformance import message_latencies

    cluster_spec = build_cluster_spec(spec)
    result = run_cluster(cluster_spec)
    report = result.report

    metrics: Dict[str, Any] = {
        "generated": report.generated,
        "delivered": report.delivered,
        "duplicates": report.duplicates,
        "expected": spec.messages() + spec.flood_total(),
        "elapsed_s": round(result.elapsed_s, 3),
        "faults_injected": len(result.fault_events),
    }
    latencies = message_latencies(result.events)
    if latencies:
        # Nearest-rank, the rule the run's own ``runtime_msg_latency_s``
        # histogram rows use: the criterion judges the number the artifact
        # reports.
        metrics["latency_p99_s"] = round(percentile(latencies, 99), 4)
    failures = evaluate_pass(spec.pass_criteria, metrics)
    for violation in report.violations + report.sequence_violations:
        failures.append(f"conformance: {violation}")
    for error in result.errors:
        failures.append(f"runtime: {error}")
    if result.interrupted:
        failures.append("runtime: interrupted")
    return ScenarioResult(
        name=spec.name,
        target="runtime",
        protocol=spec.protocol,
        ok=not failures,
        failures=failures,
        metrics=metrics,
        fault_events=list(result.fault_events),
        obs_rows=result.obs_rows(),
    )

