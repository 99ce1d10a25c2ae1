"""Spans around the state-model layers the simulator and the verifier share.

Both substrates evaluate guards through ``core.family`` and apply moves
through ``statemodel.action``, so a guard-evaluation change has to hold on
``sim-*`` and on ``verify-small4``.  The patches are class attributes: the
traced child process exists only to run one rep, so nothing is restored.
"""

from __future__ import annotations

from typing import Dict

from repro.core.family import ForwardingProtocol
from repro.statemodel.action import Action
from repro.statemodel.composition import PriorityStack

from bench.tracing import Tracer, count, total_s

#: ``Action.protocol`` label of the routing protocol ``A``; every other
#: label is a forwarding rule set (R1–R6).
_ROUTING_PROTOCOL = "A"

EXECUTE_ROUTING = "routing.selfstab_bfs.execute"
EXECUTE_RULES = "core.rules.execute"


def instrument(tracer: Tracer) -> None:
    """Trace the env phase, forwarding guard evaluation and move execution."""
    tracer.patch(PriorityStack, "before_step", "statemodel.composition.before_step")
    tracer.patch(ForwardingProtocol, "before_step", "core.family.before_step")
    tracer.patch(ForwardingProtocol, "enabled_actions", "core.family.enabled_actions")

    routing_id = tracer.intern(EXECUTE_ROUTING)
    rules_id = tracer.intern(EXECUTE_RULES)
    open_, close = tracer.open, tracer.close
    execute = Action.execute

    def traced_execute(action: Action) -> None:
        index = open_(
            routing_id if action.protocol == _ROUTING_PROTOCOL else rules_id
        )
        try:
            execute(action)
        finally:
            close(index)

    Action.execute = traced_execute  # type: ignore[method-assign]


def shared_layers(summary: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer metrics both substrates report."""
    rules_s = total_s(summary, EXECUTE_RULES)
    routing_s = total_s(summary, EXECUTE_ROUTING)
    return {
        "statemodel.composition.before_step_s": total_s(
            summary, "statemodel.composition.before_step"
        ),
        "core.family.before_step_s": total_s(summary, "core.family.before_step"),
        "core.family.enabled_actions_s": total_s(
            summary, "core.family.enabled_actions"
        ),
        "core.family.enabled_actions_calls": count(
            summary, "core.family.enabled_actions"
        ),
        "statemodel.action.execute_s": rules_s + routing_s,
        "core.rules.execute_s": rules_s,
        "routing.selfstab_bfs.execute_s": routing_s,
    }


def self_sum_ratio(summary: Dict[str, Dict[str, float]], wall_s: float) -> float:
    """Sum of every span's self time over the rep's ``wall_s`` — how much
    of the timed region the per-layer split accounts for."""
    return sum(row["self_s"] for row in summary.values()) / wall_s
