"""The step engine: atomic steps, rounds, termination.

:class:`Simulator` drives a :class:`~repro.statemodel.composition.PriorityStack`
of protocols under a daemon.  Each :meth:`Simulator.step`:

1. runs the protocols' environment hooks (``before_step``),
2. evaluates guards of every processor against the current configuration
   (actions bind all values they will write — snapshot semantics),
3. asks the daemon for a nonempty selection and validates it,
4. applies the selected actions simultaneously.

Round accounting follows the paper's definition: a round completes when
every processor enabled at the round's start has executed an action or been
*neutralized* (was enabled, became disabled without executing).

Incremental guard evaluation
----------------------------
In the locally shared memory model a guard at ``p`` reads only the closed
neighborhood of ``p``, so a step that executed actions at a few processors
can only change enabledness near those writers.  The simulator exploits
that: it keeps a per-processor cache of enabled actions and, before each
evaluation, asks the protocol stack which processors went *dirty*
(:meth:`~repro.statemodel.protocol.Protocol.dirty_after`).  Only dirty
processors are re-evaluated; protocols that do not opt in return ``None``
and get the classic full scan.  The classic full-scan engine and the
cache-vs-fresh-scan cross-check live on as test oracles in
``tests/reference_engines.py``.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ScheduleError, SimulationLimitExceeded
from repro.statemodel.action import Action
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import Daemon, EnabledMap
from repro.statemodel.protocol import Protocol
from repro.types import ProcId


@dataclass
class StepReport:
    """What happened in one step (returned by :meth:`Simulator.step`)."""

    step: int
    executed: Dict[ProcId, Action]
    enabled_count: int
    round_completed: bool
    terminal: bool = False


@dataclass
class RunResult:
    """Summary of a :meth:`Simulator.run` call."""

    steps: int
    rounds: int
    terminal: bool
    halted_by_predicate: bool
    rule_counts: Dict[str, int] = field(default_factory=dict)


class Simulator:
    """Executes protocols over a fixed set of processors.

    Parameters
    ----------
    n:
        Number of processors (identities ``0..n-1``).
    protocols:
        Either a single protocol, a sequence (descending priority), or a
        prebuilt :class:`PriorityStack`.
    daemon:
        The scheduling adversary.
    obs:
        Optional metrics registry (:class:`repro.obs.MetricsRegistry`,
        duck-typed so the state model stays import-free of the
        observability layer).  When set, every step feeds per-rule /
        per-protocol execution counts and wall-time, guard-evaluation
        counts, round completions, neutralization events and per-step
        wall-time histograms into it.  When ``None`` (the default) the
        only cost is one ``is not None`` test per step.
    """

    def __init__(
        self,
        n: int,
        protocols: Union[Protocol, Sequence[Protocol], PriorityStack],
        daemon: Daemon,
        *,
        obs: Optional[Any] = None,
    ) -> None:
        if isinstance(protocols, PriorityStack):
            self._stack = protocols
        elif isinstance(protocols, Protocol):
            self._stack = PriorityStack([protocols])
        else:
            self._stack = PriorityStack(list(protocols))
        self._n = n
        self._daemon = daemon
        self._step = 0
        #: The last step of every completed round, in order (the
        #: :class:`~repro.sim.metrics.RoundClock` input): a round completes
        #: at the step whose execution paid its last debt.
        self.round_ends: List[int] = []
        self._round_pending: Optional[Set[ProcId]] = None
        self._rule_counts: Counter = Counter()
        self._terminal = False
        #: Persistent enabled map (ascending pid order) — the cache itself:
        #: updated in place for re-evaluated processors only, rebuilt from
        #: an O(n) scan only on the first evaluation and on a full re-scan.
        self._enabled: Optional[EnabledMap] = None
        self._last_selection: Dict[ProcId, Action] = {}
        #: Number of *component evaluations* performed so far — one count
        #: per (processor, destination) component examined by a tracking
        #: protocol, one per ``enabled_actions`` call into a non-tracking
        #: one (see :attr:`Protocol.tracks_components`).  Mirrors the
        #: stack's cumulative counter, rebased to this simulator's
        #: construction.
        self.guard_evals = 0
        self._guard_base = self._stack.component_evals
        self._obs = obs
        if obs is not None:
            #: Bound instruments, resolved once (hot loops must not re-key).
            self._obs_rule_count: Dict[Tuple[str, str], Any] = {}
            self._obs_rule_wall: Dict[Tuple[str, str], Any] = {}
            self._obs_guard = obs.counter("guard_evals")
            self._obs_rounds = obs.counter("rounds_completed")
            self._obs_neutralized = obs.counter("neutralizations")
            self._obs_steps = obs.counter("steps_executed")
            self._obs_step_wall = obs.histogram("step_wall_s")
            self._obs_guard_seen = 0

    # -- accessors -----------------------------------------------------------

    @property
    def n(self) -> int:
        """Number of processors."""
        return self._n

    @property
    def daemon(self) -> Daemon:
        """The scheduling adversary driving selections."""
        return self._daemon

    @daemon.setter
    def daemon(self, daemon: Daemon) -> None:
        # Swappable mid-run: chaos drivers wrap the daemon to mask crashed
        # processors, and the enabled-set machinery is daemon-independent.
        self._daemon = daemon

    @property
    def step_count(self) -> int:
        """Number of atomic steps executed so far."""
        return self._step

    @property
    def round_count(self) -> int:
        """Number of *completed* rounds so far."""
        return len(self.round_ends)

    @property
    def rule_counts(self) -> Dict[str, int]:
        """Histogram of executed rule labels (the paper's "moves")."""
        return dict(self._rule_counts)

    @property
    def terminal(self) -> bool:
        """True once a step found no enabled processor."""
        return self._terminal

    def enabled_map(self) -> EnabledMap:
        """Evaluate guards against the current configuration.

        Only processors the protocol stack reports dirty since the last
        evaluation are re-evaluated; the rest come from the cached map.
        The returned map is identical to a full scan.
        """
        dirty = self._stack.dirty_after(self._last_selection)
        self._last_selection = {}
        stack = self._stack
        enabled = self._enabled
        if enabled is None or dirty is None:
            self._enabled = enabled = {}
            for pid in range(self._n):
                actions = stack.enabled_actions(pid)
                if actions:
                    enabled[pid] = actions
        elif dirty:
            n = self._n
            inserted = False
            for pid in dirty:
                if 0 <= pid < n:
                    actions = stack.enabled_actions(pid)
                    if actions:
                        # Replacing an existing key keeps its position, so
                        # the map stays ascending; only a *new* pid forces
                        # the O(enabled · log) re-sort below.
                        if pid not in enabled:
                            inserted = True
                        enabled[pid] = actions
                    else:
                        enabled.pop(pid, None)
            if inserted:
                self._enabled = {pid: enabled[pid] for pid in sorted(enabled)}
        self.guard_evals = stack.component_evals - self._guard_base
        return self._enabled

    # -- stepping ------------------------------------------------------------

    def step(self) -> StepReport:
        """Execute one atomic step; returns what happened.

        If no processor is enabled the configuration is terminal: the report
        has ``terminal=True`` and nothing is executed.
        """
        obs = self._obs
        step_started = perf_counter() if obs is not None else 0.0
        self._stack.before_step(self._step)
        enabled = self.enabled_map()
        if obs is not None and self.guard_evals != self._obs_guard_seen:
            self._obs_guard.inc(self.guard_evals - self._obs_guard_seen)
            self._obs_guard_seen = self.guard_evals

        # Round bookkeeping part 1: neutralization.  Any processor still
        # owed to the current round that is no longer enabled was
        # neutralized at some earlier step.
        if self._round_pending is None:
            self._round_pending = set(enabled)
        else:
            owed_before = len(self._round_pending)
            self._round_pending &= enabled.keys()
            if obs is not None and owed_before > len(self._round_pending):
                self._obs_neutralized.inc(owed_before - len(self._round_pending))
        round_completed = False
        if not self._round_pending and enabled:
            # Every debtor executed or was neutralized: a round completed,
            # the new round starts from the current enabled set.  It
            # completed at the step whose execution paid its last debt — the
            # *previous* step (completion is detected at the next
            # evaluation), so that is the step recorded.  (max() guards the
            # vacuous round counted when an initially terminal configuration
            # is revived by the environment before anything executed.)
            self.round_ends.append(max(self._step - 1, 0))
            self._round_pending = set(enabled)
            round_completed = True
            if obs is not None:
                self._obs_rounds.inc()

        # A configuration is terminal only while nothing is enabled; the
        # environment (higher layer) may revive it at a later step.
        self._terminal = not enabled
        if not enabled:
            return StepReport(
                step=self._step,
                executed={},
                enabled_count=0,
                round_completed=round_completed,
                terminal=True,
            )

        selection = self._daemon.select(enabled, self._step)
        self._validate_selection(selection, enabled)

        counts = self._rule_counts
        if obs is None:
            for action in selection.values():
                action.execute()
                counts[action.rule] += 1
        else:
            for action in selection.values():
                action_started = perf_counter()
                action.execute()
                wall = perf_counter() - action_started
                counts[action.rule] += 1
                key = (action.protocol, action.rule)
                rule_count = self._obs_rule_count.get(key)
                if rule_count is None:
                    rule_count = self._obs_rule_count[key] = obs.counter(
                        "rule_executions", protocol=action.protocol, rule=action.rule
                    )
                    self._obs_rule_wall[key] = obs.counter(
                        "rule_wall_s", protocol=action.protocol, rule=action.rule
                    )
                rule_count.inc()
                self._obs_rule_wall[key].inc(wall)
        self._last_selection = selection

        # Round bookkeeping part 2: executions pay the round debt.
        self._round_pending -= selection.keys()

        self._step += 1
        if obs is not None:
            self._obs_steps.inc()
            self._obs_step_wall.observe(perf_counter() - step_started)
        return StepReport(
            step=self._step - 1,
            executed=selection,
            enabled_count=len(enabled),
            round_completed=round_completed,
        )

    def run(self, max_steps: int) -> RunResult:
        """Run until the configuration is terminal or ``max_steps`` elapse;
        an exhausted step budget raises :class:`SimulationLimitExceeded`
        with diagnostics."""
        for _ in range(max_steps):
            if self.step().terminal:
                break
        else:
            raise SimulationLimitExceeded(
                f"no termination within {max_steps} steps "
                f"({self.round_count} rounds completed); "
                f"rule counts: {self._rule_counts}",
                steps=self._step,
                rounds=self.round_count,
            )
        return RunResult(
            steps=self._step,
            rounds=self.round_count,
            terminal=self._terminal,
            halted_by_predicate=False,
            rule_counts=dict(self._rule_counts),
        )

    # -- internals -------------------------------------------------------------

    def _validate_selection(self, selection: Dict[ProcId, Action], enabled: EnabledMap) -> None:
        if not selection:
            raise ScheduleError("daemon selected no processor while some are enabled")
        for pid, action in selection.items():
            served = enabled.get(pid)
            if served is None:
                raise ScheduleError(f"daemon selected disabled processor {pid}")
            # By identity: a daemon hands back an action it was served, and
            # an equal twin (``Action.__eq__``, field by field) was not.
            for offered in served:
                if offered is action:
                    break
            else:
                raise ScheduleError(
                    f"daemon selected an action not enabled at {pid}: {action!r}"
                )
