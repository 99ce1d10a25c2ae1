"""Daemons: the adversarial schedulers of the state model.

A daemon receives, each step, the map of enabled processors to their enabled
actions and returns a nonempty selection assigning one action to each chosen
processor (phase (ii) of the paper's atomic step).  The engine validates the
selection, so a buggy daemon fails loudly (:class:`~repro.errors.ScheduleError`).

Fairness notes
--------------
* :class:`SynchronousDaemon` selects every enabled processor — weakly fair.
* :class:`RoundRobinDaemon` is a deterministic *weakly fair* central daemon:
  it serves enabled processors in cyclic identity order, so a continuously
  enabled processor is chosen within n steps.
* The random daemons are weakly fair with probability 1, which is the right
  notion for statistical reproduction of worst-case bounds.
* :class:`AdversarialScriptDaemon` replays an explicit schedule — used to
  reproduce the paper's Figure 3 configuration by configuration — then
  continues round-robin.  A script can be *unfair*.
"""

from __future__ import annotations

import random
from abc import ABC, abstractmethod
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError, ScheduleError
from repro.statemodel.action import Action
from repro.types import ProcId

#: The per-step input to a daemon: enabled processors and their actions.
EnabledMap = Dict[ProcId, List[Action]]

#: The per-step output: chosen processors, one action each.
Selection = Dict[ProcId, Action]


class Daemon(ABC):
    """Base class for daemons."""

    @abstractmethod
    def select(self, enabled: EnabledMap, step: int) -> Selection:
        """Choose a nonempty subset of enabled processors and one enabled
        action for each.  ``enabled`` is never empty."""

    def reset(self) -> None:
        """Forget scheduling state (used when reusing a daemon across
        executions).  Default: nothing."""


class SynchronousDaemon(Daemon):
    """Selects every enabled processor each step (fully synchronous).

    Within a processor, picks the first enabled action (protocols list their
    actions in rule order, so this is the lowest-numbered enabled rule).
    """

    def select(self, enabled: EnabledMap, step: int) -> Selection:
        return {pid: actions[0] for pid, actions in enabled.items()}


class CentralRandomDaemon(Daemon):
    """Selects exactly one enabled processor uniformly at random, and one of
    its enabled actions uniformly at random.  Weakly fair with probability 1.
    """

    def __init__(self, seed: int) -> None:
        self._seed = seed
        self._rng = random.Random(seed)

    def select(self, enabled: EnabledMap, step: int) -> Selection:
        pid = self._rng.choice(sorted(enabled))
        action = self._rng.choice(enabled[pid])
        return {pid: action}

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class DistributedRandomDaemon(Daemon):
    """Each enabled processor is selected independently with probability
    ``p_select``; if the coin flips leave the selection empty, one enabled
    processor is drawn uniformly (the daemon must select at least one).
    Action choice within a processor is uniform.
    """

    def __init__(self, seed: int, p_select: float = 0.5) -> None:
        if not (0.0 < p_select <= 1.0):
            raise ValueError(f"p_select must be in (0, 1], got {p_select}")
        self._seed = seed
        self._p = p_select
        self._rng = random.Random(seed)

    def select(self, enabled: EnabledMap, step: int) -> Selection:
        rng = self._rng
        chosen: Selection = {}
        for pid in sorted(enabled):
            if rng.random() < self._p:
                chosen[pid] = rng.choice(enabled[pid])
        if not chosen:
            pid = rng.choice(sorted(enabled))
            chosen[pid] = rng.choice(enabled[pid])
        return chosen

    def reset(self) -> None:
        self._rng = random.Random(self._seed)


class RoundRobinDaemon(Daemon):
    """Deterministic weakly fair central daemon: serves enabled processors
    in cyclic identity order starting after the last served identity.
    Within a processor, rules are taken in listed order.
    """

    def __init__(self) -> None:
        self._cursor = 0

    def select(self, enabled: EnabledMap, step: int) -> Selection:
        ids = sorted(enabled)
        for pid in ids:
            if pid >= self._cursor:
                break
        else:
            pid = ids[0]
        self._cursor = pid + 1
        return {pid: enabled[pid][0]}

    def reset(self) -> None:
        self._cursor = 0


class AdversarialScriptDaemon(Daemon):
    """Replays an explicit schedule.

    The script is a sequence of step entries; each entry is a list of
    ``(processor, rule_label)`` pairs (or ``(processor, rule_label, dest)``
    triples — the third element is matched against ``action.dest``).
    When the script is exhausted the daemon continues as a
    :class:`RoundRobinDaemon`, so runs can go on past the scripted prefix.
    """

    def __init__(self, script: Iterable[Sequence[Tuple]]) -> None:
        self._script: List[Sequence[Tuple]] = [list(entry) for entry in script]
        self._pos = 0
        self._fallback = RoundRobinDaemon()

    def select(self, enabled: EnabledMap, step: int) -> Selection:
        if self._pos >= len(self._script):
            return self._fallback.select(enabled, step)
        entry = self._script[self._pos]
        self._pos += 1
        chosen: Selection = {}
        for spec in entry:
            pid, rule = spec[0], spec[1]
            dest = spec[2] if len(spec) > 2 else None
            if pid not in enabled:
                raise ScheduleError(
                    f"script step {self._pos - 1}: processor {pid} is not enabled"
                )
            for action in enabled[pid]:
                if action.rule != rule:
                    continue
                if dest is not None and action.dest != dest:
                    continue
                chosen[pid] = action
                break
            else:
                available = [(a.rule, a.dest) for a in enabled[pid]]
                raise ScheduleError(
                    f"script step {self._pos - 1}: rule {rule!r} (dest={dest!r}) "
                    f"not enabled at {pid}; enabled: {available}"
                )
        if not chosen:
            raise ScheduleError(f"script step {self._pos - 1} selects nothing")
        return chosen

    def reset(self) -> None:
        self._pos = 0
        self._fallback.reset()


def daemon_by_name(name: str, seed: int, **kwargs) -> Daemon:
    """Build a daemon from a string name (the spec schema's vocabulary).
    ``seed`` reaches the random daemons only; the deterministic ones take
    no arguments at all."""
    builders = {
        "synchronous": SynchronousDaemon,
        "round_robin": RoundRobinDaemon,
        "central": CentralRandomDaemon,
        "distributed": DistributedRandomDaemon,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown daemon {name!r}; known: {sorted(builders)}"
        ) from None
    if name in ("central", "distributed"):
        return builder(seed=seed, **kwargs)
    return builder(**kwargs)
