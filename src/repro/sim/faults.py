"""Mid-run fault injection.

Snap-stabilization is proved from one arbitrary *initial* configuration,
but the practical promise of the composition ``A ≫ SSMFP`` is stronger:
routing-table corruption may recur at any time (that is what "transient
faults" means operationally), and as long as faults only hit the *routing
variables* — never the forwarding buffers holding in-flight messages —
Lemmas 4 and 5 keep holding: no valid message is lost or duplicated, and
once faults stop, everything outstanding is delivered.

:class:`RoutingFaultInjector` is exactly that scenario: every ``period``
steps it re-corrupts a seeded-random fraction of the live routing tables
of a running simulation —
``simulation.run(..., before_step=injector.before_step)``.  The
fault-injection tests and the sustained-faults experiment are built on it.
"""

from __future__ import annotations

import random
from typing import List, Optional

from repro.routing.corruption import corrupt_random
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting


class RoutingFaultInjector:
    """Re-corrupts routing tables of a live simulation every ``period`` steps.

    Parameters
    ----------
    routing:
        The live routing protocol instance (must be the self-stabilizing
        one — static tables cannot be faulted meaningfully).
    period:
        Inject every ``period`` steps.
    fraction:
        Fraction of table entries hit per injection.
    seed:
        Seed for the entry selection (deterministic campaigns).
    stop_after:
        No injections at or beyond this step — faults must eventually
        stop for the delivery guarantee to have a deadline.
    """

    def __init__(
        self,
        routing: SelfStabilizingBFSRouting,
        *,
        period: int = 50,
        fraction: float = 0.5,
        seed: int = 0,
        stop_after: Optional[int] = None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._routing = routing
        self._period = period
        self._fraction = fraction
        self._rng = random.Random(seed)
        self._stop_after = stop_after
        #: Steps at which an injection actually happened.
        self.injections: List[int] = []

    def maybe_inject(self, step: int) -> bool:
        """Inject if ``step`` is scheduled; returns True when it did."""
        if self._stop_after is not None and step >= self._stop_after:
            return False
        if step <= 0 or step % self._period:
            return False
        corrupt_random(
            self._routing,
            seed=self._rng.randrange(1 << 30),
            fraction=self._fraction,
        )
        self.injections.append(step)
        return True

    def before_step(self, simulation) -> None:
        """The injector as a :meth:`Simulation.run` ``before_step`` hook:
        inject if the step about to execute is scheduled."""
        self.maybe_inject(simulation.sim.step_count)
