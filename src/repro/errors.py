"""Exception hierarchy for the SSMFP reproduction.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch library failures without masking programming errors.
"""

from __future__ import annotations

from typing import Any


class ReproError(Exception):
    """Base class of all errors raised by :mod:`repro`."""


class TopologyError(ReproError):
    """Raised when a network description is malformed (disconnected graph,
    self-loop, duplicate edge, identity out of range, ...)."""


class ConfigurationError(ReproError):
    """Raised when a simulation is assembled from inconsistent pieces
    (e.g. routing table sized for a different network)."""


class InvariantViolation(ReproError):
    """Raised by strict-mode invariant checking when an execution reaches a
    configuration the protocol's proofs forbid.

    A raised :class:`InvariantViolation` is always a bug — either in the
    reproduction or in the paper's argument — never an expected outcome.
    """


class SpecificationViolation(ReproError):
    """Raised by the delivery ledger when the external specification SP is
    violated: a valid message lost, duplicated, or delivered to the wrong
    processor."""


class SelectionOverflow(ReproError):
    """Raised while enumerating daemon choices when the per-state fan-out
    exceeds the verifier's safety valve.  :class:`~repro.verify.ModelChecker`
    converts it into a ``truncated`` result (its ``run()`` never raises);
    the liveness explorer propagates it, since a partially built reachable
    graph cannot prove starvation-freedom."""


class ScheduleError(ReproError):
    """Raised when a daemon produces an illegal selection (empty selection
    while processors are enabled, selecting a disabled processor, ...)."""


class SimulationLimitExceeded(ReproError):
    """Raised when an execution exceeds its step budget without reaching the
    requested halting condition.  Carries diagnostic context to make
    non-terminating runs debuggable."""

    def __init__(self, message: str, *, steps: int, rounds: int) -> None:
        super().__init__(message)
        self.steps = steps
        self.rounds = rounds


def check_fraction(what: str, value: Any) -> float:
    """The one range rule for every fraction a spec or flag carries —
    schedule events, the ``[sim]`` initial corruption, ``--garbage``, the
    netem loss / dup / reorder knobs."""
    try:
        fraction = float(value)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{what} must be a number, got {value!r}"
        ) from None
    if not 0.0 <= fraction <= 1.0:
        raise ConfigurationError(f"{what} must be in [0, 1], got {fraction}")
    return fraction
