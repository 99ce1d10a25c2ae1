"""Exhaustive state-space exploration of small forwarding-protocol instances.

The checker performs BFS over *every* reachable configuration: from each
configuration it enumerates every daemon choice the model allows — every
nonempty subset of enabled processors, every choice of enabled action per
selected processor, i.e. the full distributed-daemon semantics including
simultaneity.  In every visited configuration the safety invariants
(Lemmas 4-5 plus well-formedness) are checked, the strict ledger arms the
exactly-once specification, and every *terminal* configuration is required
to have delivered all generated messages.

This is genuine model checking (bounded only by the instance size), not
sampling: on a 3-processor line with two same-payload messages it visits
every configuration the paper's adversary could ever produce.

Exploration
-----------
The search is serial and explores **one** reused system through
the explicit snapshot/restore layer (:mod:`repro.statemodel.snapshot`):
each transition restores the parent's state vector, executes the selected
actions — reusing the parent's already-bound
:class:`~repro.statemodel.action.Action` objects, which is sound because
restore reinstates the exact configuration they were evaluated against —
and snapshots the child (:meth:`_System.successors`, the one loop both
verifiers run).  A transition costs what it wrote: the parent vector is
the components' *anchor*, so going back undoes only the journaled cells
(a plain undo, no notifier), neither the transition nor the undo marks
anything in the incremental engine's dirty sets, and the child vector
shares by identity every sub-vector and cell the transition left alone.
A popped state is a different vector, diffed in full through the ordinary
change notifiers, so it re-evaluates only the ``(processor,
destination)`` components that differ from its predecessor on the
frontier.  The canonical form is a projection of the same state vector,
so canonicalization and restoration can never diverge.

The search accepts the state-space *reductions* of
:mod:`repro.verify.reduction` — canonical-form symmetry quotienting and
partial-order reduction of decomposable daemon selections.

The unreduced differential oracle — an explorer that clones the whole
system per transition — lives in ``tests/reference_engines.py``: the
equivalence suite pins that it and the snapshot search visit the
bit-identical state set, transition count and violations, and
``tests/test_verify_reduction.py`` pins that every reduced
configuration reaches the same canon set and verdict (see
``docs/verify.md``).
"""

from __future__ import annotations

import itertools
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.core.invariants import InvariantChecker
from repro.core.family import ForwardingProtocol
from repro.errors import ReproError, SelectionOverflow
from repro.statemodel.composition import PriorityStack
from repro.statemodel.snapshot import StateVector
from repro.verify.reduction import IndependenceOracle, validate_symmetry

#: The state-space reductions accepted by :class:`ModelChecker`.
REDUCTIONS = ("none", "por", "symmetry", "full")


@dataclass
class ModelCheckResult:
    """Outcome of an exhaustive exploration."""

    states: int
    transitions: int
    terminal_states: int
    max_frontier: int
    truncated: bool
    #: Human-readable invariant/spec failures with their depth (empty ==
    #: the instance is exhaustively safe).
    violations: List[str] = field(default_factory=list)
    #: Why a truncated search stopped early (state cap, selection fan-out);
    #: None for complete searches.
    note: Optional[str] = None
    #: Children that deduplicated against an already-seen canon.
    dedup_hits: int = 0
    #: Daemon selections pruned by partial-order reduction.
    skipped_selections: int = 0
    #: The reduction configuration the run used.
    reduction: str = "none"
    #: Size of the validated symmetry group (1 == identity only).
    group_size: int = 1
    #: How the reductions were applied or why they were disabled.
    reduction_note: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff no violation was found and the search completed."""
        return not self.violations and not self.truncated


class ProgressMeter:
    """Rate-limited progress reporting for long exhaustive runs.

    Emits a row ``{states, frontier, states_per_s, dedup_hits,
    elapsed_s}`` to the ``on_progress`` callback every ``log_every``
    expanded states, mirrors the rate into a ``repro.obs`` registry
    (``verify_states_per_s`` histogram), and exports the final
    ``verify_states_total`` / ``verify_transitions_total`` counters and
    the ``verify_dedup_ratio`` gauge on :meth:`finish`."""

    def __init__(self, log_every=0, on_progress=None, obs=None,
                 engine="snapshot"):
        self._log_every = max(0, int(log_every or 0))
        self._cb = on_progress
        self._obs = obs
        self._engine = engine
        self._t0 = time.perf_counter()
        self._next = self._log_every

    def tick(self, states: int, frontier: int, dedup_hits: int) -> None:
        if not self._log_every or states < self._next:
            return
        while self._next <= states:
            self._next += self._log_every
        elapsed = max(time.perf_counter() - self._t0, 1e-9)
        row = {
            "states": states,
            "frontier": frontier,
            "states_per_s": round(states / elapsed, 1),
            "dedup_hits": dedup_hits,
            "elapsed_s": round(elapsed, 3),
        }
        if self._cb is not None:
            self._cb(row)
        if self._obs is not None:
            self._obs.observe(
                "verify_states_per_s", row["states_per_s"], engine=self._engine
            )

    def finish(self, states: int, transitions: int, dedup_hits: int) -> None:
        if self._obs is None:
            return
        self._obs.counter("verify_states_total", engine=self._engine).inc(states)
        self._obs.counter(
            "verify_transitions_total", engine=self._engine
        ).inc(transitions)
        self._obs.gauge("verify_dedup_ratio", engine=self._engine).set(
            round(dedup_hits / max(transitions, 1), 6)
        )


def enumerate_selections(
    enabled: Dict[int, List], max_width: int
) -> List[Dict[int, int]]:
    """Every daemon choice: nonempty subset of enabled pids x one enabled
    action index each.  Raises :class:`SelectionOverflow` when the fan-out
    exceeds ``max_width`` (the per-state safety valve)."""
    pids = sorted(enabled)
    selections: List[Dict[int, int]] = []
    for r in range(1, len(pids) + 1):
        for subset in itertools.combinations(pids, r):
            index_ranges = [range(len(enabled[pid])) for pid in subset]
            for choice in itertools.product(*index_ranges):
                selections.append(dict(zip(subset, choice)))
                if len(selections) > max_width:
                    raise SelectionOverflow(
                        f"selection fan-out exceeds {max_width}; "
                        "use a smaller instance or raise max_selection_width"
                    )
    return selections


class _System:
    """The explorable bundle: the protocol stack plus the step counter,
    with snapshot/restore and snapshot-derived canonicalization."""

    def __init__(self, proto: ForwardingProtocol, extra_protocols=()) -> None:
        self.proto = proto
        self.protocols = list(extra_protocols) + [proto]
        #: Built once and reused for every guard evaluation (the
        #: pre-snapshot checker rebuilt a fresh stack per call, discarding
        #: the composition's caches each time).
        self._stack = PriorityStack(self.protocols)
        self.step = 0
        #: :meth:`canon`'s ledger projection and the vector it was taken of.
        self._accounts_of: Optional[StateVector] = None
        self._accounts: Tuple = ()

    def advance_env(self) -> None:
        """The environment phase (requests + queue sync), deterministic."""
        self._stack.before_step(self.step)

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> StateVector:
        """Full state vector: every layer's vector plus the step counter."""
        return (self._stack.snapshot(), self.step)

    def restore(self, vec: StateVector) -> None:
        """Reinstate a previously captured :meth:`snapshot` (diffing —
        only cells that differ are written, through the layers' ordinary
        mutators and change notifiers)."""
        stack_vec, step = vec
        self._stack.restore(stack_vec)
        self.step = step

    def canon(self, vec: Optional[StateVector] = None) -> Tuple:
        """A hashable canonical form of the full configuration, **derived
        from the state vector** — the same value :meth:`restore` consumes,
        so canonicalization and restoration cannot diverge.

        The projection drops state that never influences future protocol
        behavior distinguishably: the step counter, message birth stamps,
        the uid counters (determined by the generation count), the
        delivery/violation logs and the ledger's per-record details.

        Every processor-indexed field is stored in a deterministic,
        identity-sorted order (buffers by ``(d, p, kind)``, queues and
        outboxes ascending) — the *orbit-stable* ordering contract that
        lets :mod:`repro.verify.reduction` permute a canon and re-sort it
        into the same normal form (see ``statemodel/snapshot.py``).
        """
        if vec is None:
            vec = self.snapshot()
        stack_vec, _step = vec
        bufs_vec, queues_vec, hl_vec, ledger_vec, _factory, _pstep = stack_vec[-1]
        buffers = tuple(
            (d, p, kind, msg.payload, msg.last, msg.color, msg.uid)
            for d, p, kind, msg in bufs_vec
        )
        app = (hl_vec[0], hl_vec[1])
        # Only generations and deliveries move the ledger, so most children
        # carry their parent's ledger vector (shared by identity).
        if ledger_vec is not self._accounts_of:
            generated, delivered, invalid, _lost, _violations = ledger_vec
            delivered_uids = {uid for uid, _ in delivered}
            self._accounts = (
                tuple(sorted(
                    uid for uid, _ in generated if uid not in delivered_uids
                )),
                len(generated),
                len(delivered),
                len(invalid),
            )
            self._accounts_of = ledger_vec
        #: Higher-priority layers (e.g. the routing protocol ``A``) are
        #: canonical in full — their vectors are already compact tables.
        extras = stack_vec[:-1]
        return (buffers, queues_vec, app, extras, self._accounts)

    # -- expansion -----------------------------------------------------------

    def enabled(self) -> Dict[int, List]:
        """The enabled actions of the current configuration by processor
        (enabled processors only).  Drains the dirty channel first, so only
        the components touched since the previously evaluated
        configuration — by execution, environment moves or restore diffs —
        are re-evaluated."""
        stack = self._stack
        stack.dirty_after({})
        enabled = {}
        for pid in range(self.proto.net.n):
            actions = stack.enabled_actions(pid)
            if actions:
                enabled[pid] = actions
        return enabled

    def successors(self, vec, enabled, selections):
        """The one transition loop of the exhaustive verifiers.  For each
        daemon selection (``{pid: index into enabled[pid]}``): back to the
        parent configuration ``vec`` — the actions in ``enabled`` were
        bound against exactly that state, so they are re-executed, not
        re-derived — execute, ``step += 1``, environment phase, snapshot,
        canon.  The next restore takes all of that back, so each
        transition runs as an *excursion*
        (:meth:`ForwardingProtocol.begin_excursion`): the forwarding
        layer marks no guard-cache dirt on the way out.  Yields
        ``(selection, child_vec, key, None)``, or
        ``(selection, None, None, exc)`` when the execution raised a
        :class:`ReproError` (a strict-ledger specification violation).

        ``selections`` is consumed lazily, one selection per transition,
        so a filter may consult what earlier transitions yielded."""
        proto = self.proto
        for selection in selections:
            self.restore(vec)
            proto.begin_excursion()
            try:
                for pid, index in selection.items():
                    enabled[pid][index].execute()
            except ReproError as exc:
                yield selection, None, None, exc
                continue
            self.step += 1
            self.advance_env()
            child_vec = self.snapshot()
            yield selection, child_vec, self.canon(child_vec), None


def _fresh_system(make_system) -> _System:
    """The explorable system a checker's factory builds: ``make_system()``
    returns the protocol, or ``(protocol, extra_protocols)``."""
    made = make_system()
    if isinstance(made, tuple):
        proto, extra = made
        return _System(proto, extra)
    return _System(made)


def expand_state(system, vec, depth, max_width, oracle, reducer, result):
    """Expand one configuration: restore it, run the invariant and
    terminal checks, enumerate the daemon selections (POR-filtered when
    ``oracle`` is given) and collect their :meth:`_System.successors`.

    Updates ``result``'s transitions / terminal / violations / skipped
    counters; ``states`` and ``dedup_hits`` stay with the caller, which
    owns the seen-set.  Returns the children as ``[(child_vec, key,
    depth + 1), ...]`` — possibly with repeated keys; dedup is the
    caller's job — or ``None`` when a :class:`SelectionOverflow` truncated
    the search (``result.note`` set).

    Singletons come first in :func:`enumerate_selections` order, so by the
    time :meth:`IndependenceOracle.admissible` judges a composite selection
    the singletons that raised are known; the oracle keeps the closed-
    neighborhood rule for those.
    """
    system.restore(vec)
    try:
        InvariantChecker(system.proto).check()
    except ReproError as exc:
        result.violations.append(f"depth {depth}: {exc}")
        return []

    enabled = system.enabled()
    if not enabled:
        result.terminal_states += 1
        ledger = system.proto.ledger
        if not ledger.all_valid_delivered():
            result.violations.append(
                f"depth {depth}: terminal configuration with "
                f"undelivered uids {sorted(ledger.outstanding_uids())}"
            )
        if system.proto.hl.total_pending():
            result.violations.append(
                f"depth {depth}: terminal configuration with "
                f"pending submissions"
            )
        return []

    try:
        selections = enumerate_selections(enabled, max_width)
    except SelectionOverflow as exc:
        result.truncated = True
        result.note = f"depth {depth}: {exc}"
        return None

    raised = set()
    if oracle is not None:

        def admissible(selection):
            if oracle.admissible(selection, enabled, raised):
                return True
            result.skipped_selections += 1
            return False

        selections = filter(admissible, selections)

    children = []
    for selection, child_vec, key, error in system.successors(
        vec, enabled, selections
    ):
        if error is not None:
            result.violations.append(f"depth {depth + 1}: {error}")
            if len(selection) == 1:
                raised.update(selection.items())
            continue
        result.transitions += 1
        if reducer is not None:
            key = reducer.representative(key)
        children.append((child_vec, key, depth + 1))
    return children


class ModelChecker:
    """Breadth-first exhaustive exploration.

    Parameters
    ----------
    make_system:
        Zero-argument factory building the *initial* configuration: returns
        a :class:`ForwardingProtocol` instance (with its higher layer already loaded
        and any corruption applied) or a tuple ``(ssmfp, [higher-priority
        protocols])``.
    max_states:
        Exploration cap; exceeding it marks the result ``truncated``.
    max_selection_width:
        Safety valve on the per-state fan-out (number of daemon choices).
        Exceeding it also marks the result ``truncated`` (with
        :attr:`ModelCheckResult.note` explaining why) — ``run()`` never
        raises.
    reduction:
        ``"none"`` (default), ``"por"`` (partial-order reduction of
        decomposable selections — preserves the reachable state set,
        prunes transitions), ``"symmetry"`` (orbit quotient under the
        validated processor-permutation group) or ``"full"`` (both).
        Reductions that do not apply to the instance are disabled with an
        explanatory :attr:`ModelCheckResult.reduction_note`, never
        silently wrong.
    log_every / on_progress / obs:
        Progress reporting: every ``log_every`` expanded states a row is
        passed to ``on_progress`` and mirrored into the ``obs`` metrics
        registry; final totals are exported as ``verify_states_total`` /
        ``verify_dedup_ratio`` (see :class:`ProgressMeter`).
    """

    def __init__(
        self,
        make_system,
        max_states: int = 50_000,
        max_selection_width: int = 512,
        engine: str = "snapshot",
        reduction: str = "none",
        log_every: int = 0,
        on_progress=None,
        obs=None,
    ) -> None:
        # ``engine`` stays only because ``bench/verify.py`` passes it.
        if engine != "snapshot":
            raise ValueError(f"unknown engine {engine!r}; want 'snapshot'")
        if reduction not in REDUCTIONS:
            raise ValueError(
                f"unknown reduction {reduction!r}; want one of {REDUCTIONS}"
            )
        self._make_system = make_system
        self._max_states = max_states
        self._max_width = max_selection_width
        self._reduction = reduction
        self._log_every = log_every
        self._on_progress = on_progress
        self._obs = obs

    def _setup_reduction(self, system: _System, result: ModelCheckResult):
        """Validate the requested reductions against the instance (the
        system must be in its root configuration).  Returns ``(symmetry
        reducer or None, independence oracle or None)`` and records the
        group size / fallback notes on the result."""
        reducer = oracle = None
        notes: List[str] = []
        if self._reduction in ("symmetry", "full"):
            reducer, note = validate_symmetry(system.proto, system.canon())
            notes.append(note)
            if reducer is not None:
                result.group_size = reducer.group_size
        if self._reduction in ("por", "full"):
            if getattr(system.proto, "_sync_every_step", False):
                notes.append(
                    "por off: aged_fair per-step reconciliation is not "
                    "idempotent across decomposed selections"
                )
            else:
                oracle = IndependenceOracle(system.proto)
                notes.append("por on")
        if notes:
            result.reduction_note = "; ".join(notes)
        return reducer, oracle

    def _visited(self, root_key) -> Set:
        """The set of canons seen, holding ``root_key``; it lives only as
        long as one :meth:`run` (a result never holds the state space)."""
        return {root_key}

    def run(self) -> ModelCheckResult:
        """Explore exhaustively; never raises on protocol violations or
        fan-out overflow — violations are collected into the result and an
        overflow truncates it (see :attr:`ModelCheckResult.note`)."""
        result = ModelCheckResult(
            states=0, transitions=0, terminal_states=0,
            max_frontier=0, truncated=False, reduction=self._reduction,
        )
        system = _fresh_system(self._make_system)
        system.advance_env()
        reducer, oracle = self._setup_reduction(system, result)
        meter = ProgressMeter(
            log_every=self._log_every, on_progress=self._on_progress,
            obs=self._obs,
        )
        root_vec = system.snapshot()
        root_key = system.canon(root_vec)
        if reducer is not None:
            root_key = reducer.representative(root_key)
        seen = self._visited(root_key)
        frontier: deque = deque([(root_vec, 0)])

        while frontier:
            result.max_frontier = max(result.max_frontier, len(frontier))
            if result.states >= self._max_states:
                result.truncated = True
                result.note = f"state cap {self._max_states} reached"
                break
            vec, depth = frontier.popleft()
            result.states += 1
            meter.tick(result.states, len(frontier), result.dedup_hits)
            children = expand_state(
                system, vec, depth, self._max_width, oracle, reducer, result
            )
            if children is None:
                break
            for child_vec, key, child_depth in children:
                if key in seen:
                    result.dedup_hits += 1
                else:
                    seen.add(key)
                    frontier.append((child_vec, child_depth))
        meter.finish(result.states, result.transitions, result.dedup_hits)
        return result
