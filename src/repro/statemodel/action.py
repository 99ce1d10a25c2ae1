"""Enabled actions as first-class values.

An :class:`Action` is one enabled guarded rule at one processor, with every
value it will write *already computed* from the configuration snapshot it was
evaluated against.  Executing the action only applies those writes.  This is
what gives the engine the paper's atomic-step semantics: when the daemon
selects several processors in one step, all of their actions were bound
against the same configuration γ_i, so their combined application yields the
γ_{i+1} the state model prescribes (each processor writes only its own
variables, hence no write conflicts).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.types import ProcId


class Action:
    """One enabled rule instance at one processor.

    A plain slotted value (one is built per enabled guard per evaluation):
    compared field by field, not hashable — ``info`` is a dict.

    Attributes
    ----------
    pid:
        The processor executing the action.
    rule:
        Rule label, e.g. ``"R3"`` for SSMFP's forwarding rule.
    protocol:
        Name of the protocol the rule belongs to (used by priority
        composition and by traces).
    effect:
        Zero-argument callable applying the precomputed writes.
    info:
        Diagnostic payload recorded in traces (destination, message, ...).
        Never read by the engine.
    """

    __slots__ = ("pid", "rule", "protocol", "effect", "info")

    def __init__(
        self,
        pid: ProcId,
        rule: str,
        protocol: str,
        effect: Callable[[], None],
        info: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.pid = pid
        self.rule = rule
        self.protocol = protocol
        self.effect = effect
        self.info = {} if info is None else info

    def execute(self) -> None:
        """Apply the action's precomputed writes."""
        self.effect()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.pid == other.pid
            and self.rule == other.rule
            and self.protocol == other.protocol
            and self.effect == other.effect
            and self.info == other.info
        )

    def __repr__(self) -> str:
        return f"Action(pid={self.pid}, rule={self.rule}, protocol={self.protocol})"
