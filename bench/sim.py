"""The ``sim-*`` workloads: the state-model simulator, run to delivery.

The public entry points are ``build_simulation`` (set-up) and
``Simulation.run(halt=delivered_and_drained)`` (timed).  The verdict is the
delivery ledger's: every submitted message generated and delivered exactly
once, no violation recorded.
"""

from __future__ import annotations

import resource
from time import perf_counter
from typing import Any, Dict, List, Mapping, Optional

from repro.app.workload import uniform_workload
from repro.network.topologies import topology_by_name
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.sim.metrics import moves_per_delivery
from repro.sim.runner import Simulation, build_simulation, delivered_and_drained
from repro.statemodel.daemon import DistributedRandomDaemon
from repro.statemodel.scheduler import Simulator

from bench import statemodel
from bench.tracing import Tracer, count, self_s, total_s

#: Step budget; the largest workload needs about 40k.
_MAX_STEPS = 2_000_000


def prepare(params: Mapping[str, Any], seed: int) -> Simulation:
    """Generate topology, workload, corruption and daemon from ``seed`` and
    assemble the system (all of it set-up, none of it timed)."""
    net = topology_by_name(
        params["topology"]["name"], **params["topology"]["kwargs"]
    )
    workload = uniform_workload(
        net.n, params["messages"], seed=seed, spread_steps=params["spread_steps"]
    )
    corruption = None
    if params["corrupt_fraction"]:
        corruption = {
            "kind": "random",
            "fraction": params["corrupt_fraction"],
            "seed": seed,
        }
    return build_simulation(
        net,
        workload=workload,
        daemon=DistributedRandomDaemon(seed=seed),
        seed=seed,
        routing_corruption=corruption,
        # Violations are counted into failed_share, not raised mid-run.
        ledger_strict=False,
    )


def units(simulation: Simulation) -> List[Simulation]:
    """What a ``--seconds`` child times one by one: the whole run."""
    return [simulation]


def instrument(tracer: Tracer) -> None:
    """Trace the simulator's layer boundaries."""
    statemodel.instrument(tracer)
    tracer.patch(Simulation, "run", "sim.runner.run")
    tracer.patch(Simulator, "step", "statemodel.scheduler.step")
    tracer.patch(Simulator, "enabled_map", "statemodel.scheduler.enabled_map")
    tracer.patch(DistributedRandomDaemon, "select", "statemodel.daemon.select")
    tracer.patch(
        SelfStabilizingBFSRouting,
        "enabled_actions",
        "routing.selfstab_bfs.enabled_actions",
    )


def run(simulation: Simulation, tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Run to delivery, check the ledger, report."""
    submitted = simulation.workload.size
    started = perf_counter()
    result = simulation.run(
        _MAX_STEPS, halt=delivered_and_drained, raise_on_limit=False
    )
    ran = perf_counter()
    ledger = simulation.ledger
    delivered = ledger.valid_delivered_count
    undelivered = submitted - delivered
    problems = []
    if not result.halted_by_predicate:
        problems.append(f"no delivery within {_MAX_STEPS} steps")
    if not ledger.all_valid_delivered() or undelivered:
        problems.append(f"{undelivered} of {submitted} messages undelivered")
    if ledger.violations:
        problems.append(f"ledger violations: {ledger.violations[:3]}")
    if ledger.invalid_delivery_count:
        problems.append(f"{ledger.invalid_delivery_count} invalid deliveries")
    verdict = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_s = ran - started
    wall_s = verdict - started
    failed = (
        abs(undelivered)
        + len(ledger.violations)
        + ledger.invalid_delivery_count
        + (0 if result.halted_by_predicate else 1)
    )
    rules = result.rule_counts
    routing_moves = sum(n for rule, n in rules.items() if rule.startswith("RT"))
    moves = sum(rules.values())
    guard_evals = simulation.sim.guard_evals
    exact = {
        "statemodel.scheduler.steps": result.steps,
        "statemodel.scheduler.rounds": result.rounds,
        "statemodel.scheduler.guard_evals": guard_evals,
        "statemodel.daemon.selected": moves,
        "core.rules.moves": moves - routing_moves,
        "routing.selfstab_bfs.moves": routing_moves,
        "core.ledger.delivered": delivered,
        "sim.metrics.moves_per_delivery": moves_per_delivery(
            rules, delivered, simulation.forwarding.forwarding_rules
        )
        or 0.0,
    }
    outcome: Dict[str, Any] = {
        "metrics": {
            "wall_s": wall_s,
            "delivered_per_s": delivered / run_s,
            "steps_per_s": result.steps / run_s,
            "work_per_s": delivered / run_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "exact": exact,
        "work": delivered,
        "run_s": run_s,
        "attempted": submitted,
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        summary = tracer.summary()
        enabled_map_s = total_s(summary, "statemodel.scheduler.enabled_map")
        outcome["spans"] = summary
        outcome["layers"] = {
            **statemodel.shared_layers(summary),
            "statemodel.scheduler.enabled_map_s": enabled_map_s,
            "statemodel.scheduler.us_per_guard_eval": (
                1e6 * enabled_map_s / guard_evals
            ),
            "statemodel.scheduler.step_self_s": self_s(
                summary, "statemodel.scheduler.step"
            ),
            "statemodel.daemon.select_s": total_s(
                summary, "statemodel.daemon.select"
            ),
            "routing.selfstab_bfs.enabled_actions_s": total_s(
                summary, "routing.selfstab_bfs.enabled_actions"
            ),
            "routing.selfstab_bfs.enabled_actions_calls": count(
                summary, "routing.selfstab_bfs.enabled_actions"
            ),
            "sim.runner.run_self_s": self_s(summary, "sim.runner.run"),
            "bench.trace_self_sum_ratio": statemodel.self_sum_ratio(
                summary, wall_s
            ),
        }
    return outcome
