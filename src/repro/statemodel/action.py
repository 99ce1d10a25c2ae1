"""Enabled actions as first-class values.

An :class:`Action` is one enabled guarded rule at one processor, with every
value it will write *already computed* from the configuration snapshot it was
evaluated against.  Executing the action only applies those writes.  This is
what gives the engine the paper's atomic-step semantics: when the daemon
selects several processors in one step, all of their actions were bound
against the same configuration γ_i, so their combined application yields the
γ_{i+1} the state model prescribes (each processor writes only its own
variables, hence no write conflicts).

An action is *data*: the callable that applies it and the values bound at
guard time, nothing captured in a closure.  Two evaluations of the same
unchanged component therefore compare equal, and a cached action holds no
function object, cell or dict of its own.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Tuple

from repro.types import DestId, ProcId


class Action:
    """One enabled rule instance at one processor.

    A plain slotted record (one is built per enabled guard per evaluation):
    compared by value, field by field, and not hashable.

    Attributes
    ----------
    pid:
        The processor executing the action.
    rule:
        Rule label, e.g. ``"R3"`` for SSMFP's forwarding rule.
    protocol:
        Name of the protocol the rule belongs to (used by priority
        composition and by the metrics registry's labels).
    dest:
        The destination component the action reads and writes — engine
        state: scripted daemons select by it and the verifier's
        independence oracle compares actions by it.  ``None`` means "no
        known component: conflicts with everything".
    apply:
        The callable applying the precomputed writes, called as
        ``apply(*args)`` — for the forwarding rule sets a module-level
        function.  An optional ``apply.describe(*args)`` attribute names
        what :attr:`info` reports beyond ``dest``.
    args:
        The values bound at guard time, in ``apply``'s parameter order.
    """

    __slots__ = ("pid", "rule", "protocol", "dest", "apply", "args")

    def __init__(
        self,
        pid: ProcId,
        rule: str,
        protocol: str,
        dest: Optional[DestId],
        apply: Callable[..., None],
        args: Tuple[Any, ...] = (),
    ) -> None:
        self.pid = pid
        self.rule = rule
        self.protocol = protocol
        self.dest = dest
        self.apply = apply
        self.args = args

    def execute(self) -> None:
        """Apply the action's precomputed writes — the one method every
        move of every engine goes through."""
        self.apply(*self.args)

    @property
    def info(self) -> Dict[str, Any]:
        """Diagnostic payload (destination, message uid, ...), built on
        demand for debugging and for the differential tests that compare
        rule sets through it.  Never read by the engine."""
        info: Dict[str, Any] = {} if self.dest is None else {"dest": self.dest}
        describe = getattr(self.apply, "describe", None)
        if describe is not None:
            info.update(describe(*self.args))
        return info

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.pid == other.pid
            and self.rule == other.rule
            and self.protocol == other.protocol
            and self.dest == other.dest
            and self.apply == other.apply
            and self.args == other.args
        )

    def __repr__(self) -> str:
        return f"Action(pid={self.pid}, rule={self.rule}, protocol={self.protocol})"
