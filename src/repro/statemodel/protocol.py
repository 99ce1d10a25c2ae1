"""The :class:`Protocol` interface implemented by every distributed
algorithm in this reproduction (routing, SSMFP, baselines).

A protocol owns per-processor local state and exposes, for each processor,
the list of currently enabled actions.  Actions must follow the binding
discipline documented in :mod:`repro.statemodel.action`: every value an
action writes is computed *before* the action is returned, from the current
configuration, so simultaneous execution keeps snapshot semantics.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List, Optional, Set

from repro.statemodel.action import Action
from repro.statemodel.snapshot import EMPTY_STATE, StateVector
from repro.types import ProcId


class Protocol(ABC):
    """Base class for state-model protocols.

    Subclasses set :attr:`name` and implement :meth:`enabled_actions`.
    The optional hooks let protocols model their environment interface
    (e.g. the higher layer raising ``request_p``) outside of daemon steps.
    """

    #: Human-readable protocol name; also used by priority composition.
    name: str = "protocol"

    #: True for protocols that evaluate guards per (processor, destination)
    #: *component* and account that work in :attr:`component_evals`.
    #: Protocols that don't are charged one component-evaluation per
    #: ``enabled_actions`` call by the composition layer, so the engine-wide
    #: ``guard_evals`` metric stays meaningful for any mix of protocols.
    tracks_components: bool = False

    #: Cumulative number of component evaluations performed by this protocol
    #: (only maintained when :attr:`tracks_components` is set).  A component
    #: evaluation is one examination of a single ``(p, d)`` component —
    #: whether it short-circuits on an emptiness fast path or runs the full
    #: rule list — counted identically in the classic full scan and in the
    #: incremental reconcile, so ratios between engines compare like work.
    component_evals: int = 0

    @abstractmethod
    def enabled_actions(self, pid: ProcId) -> List[Action]:
        """All actions of this protocol currently enabled at ``pid``.

        Must be side-effect free and must bind every value the returned
        actions will write (snapshot discipline).
        """

    def silent_at(self, pid: ProcId) -> bool:
        """True when ``enabled_actions(pid)`` would answer ``[]``
        evaluating nothing, and then counts as that call (default: never)."""
        return False

    def before_step(self, step: int) -> None:
        """Hook invoked by the simulator at the very beginning of each step,
        before guard evaluation.  Used for environment moves that the paper
        models outside the daemon (higher-layer requests, fairness-queue
        bookkeeping).  Default: nothing."""

    def dirty_after(self, selection: Dict[ProcId, "Action"]) -> Optional[Set[ProcId]]:
        """Incremental-engine hook: the set of processors whose guards may
        have changed since the previous guard evaluation.

        The simulator calls this once per step, immediately before guard
        evaluation (after :meth:`before_step`), passing the selection it
        executed in the previous step (empty on the first step and after
        terminal steps).  The returned set must cover *every* source of
        guard change since the last call: the executed actions' writes,
        environment moves made by :meth:`before_step`, and any external
        mutation of protocol state.

        In the locally shared memory model a guard at ``p`` reads only the
        closed neighborhood of ``p``, so protocols that track their writes
        can return small sets and the simulator will re-evaluate only those
        processors, reusing its cached enabled actions everywhere else.

        Returning ``None`` means "anything may have changed" and forces a
        full re-scan — the safe default for protocols that do not opt in.

        Component-tracking protocols (:attr:`tracks_components`) implement
        this as the *projection onto processors* of their per-``(p, d)``
        component dirty sets: the simulator re-evaluates exactly the
        reported processors, and inside ``enabled_actions`` the protocol
        reconciles only the dirty components, serving everything else from
        its component cache (see :mod:`repro.statemodel.components`).
        """
        return None

    def snapshot(self) -> StateVector:
        """The protocol's full mutable state as an immutable vector (see
        :mod:`repro.statemodel.snapshot` for the contract).  Default: the
        empty vector — correct only for stateless protocols; every stateful
        protocol explored by :mod:`repro.verify` must override both this
        and :meth:`restore`."""
        return EMPTY_STATE

    def restore(self, vec: StateVector) -> None:
        """Reinstate a previously captured :meth:`snapshot`.  The default
        accepts only the empty vector, so a stateful protocol that forgot
        to implement the pair fails loudly instead of silently corrupting
        an exploration."""
        if vec != EMPTY_STATE:
            raise NotImplementedError(
                f"{type(self).__name__} returned a non-empty state vector "
                "but does not implement restore()"
            )
