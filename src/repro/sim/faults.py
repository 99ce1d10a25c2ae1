"""Mid-run fault injection.

Snap-stabilization is proved from one arbitrary *initial* configuration,
but the practical promise of the composition ``A ≫ SSMFP`` is stronger:
routing-table corruption may recur at any time (that is what "transient
faults" means operationally), and as long as faults only hit the *routing
variables* — never the forwarding buffers holding in-flight messages —
Lemmas 4 and 5 keep holding: no valid message is lost or duplicated, and
once faults stop, everything outstanding is delivered.

:class:`RoutingFaultInjector` is exactly that scenario: at scheduled
steps (periodic or seeded-random), it re-corrupts a fraction of the live
routing tables of a running simulation —
``simulation.run(..., before_step=injector.before_step)``.  The
fault-injection tests and the sustained-faults experiment are built on it.
"""

from __future__ import annotations

import random
from typing import Iterable, List, Optional, Set

from repro.routing.corruption import corrupt_random
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting


class RoutingFaultInjector:
    """Re-corrupts routing tables of a live simulation at chosen steps.

    Parameters
    ----------
    routing:
        The live routing protocol instance (must be the self-stabilizing
        one — static tables cannot be faulted meaningfully).
    at_steps:
        Explicit step numbers at which to inject, or None for periodic
        injection.
    period:
        Inject every ``period`` steps (used when ``at_steps`` is None).
    fraction:
        Fraction of table entries hit per injection.
    seed:
        Seed for the entry selection (deterministic campaigns).
    stop_after:
        No injections at or beyond this step — faults must eventually
        stop for the delivery guarantee to have a deadline.
    obs:
        Optional :class:`repro.obs.MetricsRegistry`; every injection bumps
        the ``faults_injected_total`` counter.
    tracer:
        Optional :class:`repro.obs.MessageTracer`; every injection is
        stamped into the lifecycle timeline as a ``fault_event`` row, so
        exported artifacts show faults interleaved with message hops.
    """

    def __init__(
        self,
        routing: SelfStabilizingBFSRouting,
        *,
        at_steps: Optional[Iterable[int]] = None,
        period: int = 50,
        fraction: float = 0.5,
        seed: int = 0,
        stop_after: Optional[int] = None,
        obs=None,
        tracer=None,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self._routing = routing
        self._at: Optional[Set[int]] = set(at_steps) if at_steps is not None else None
        self._period = period
        self._fraction = fraction
        self._rng = random.Random(seed)
        self._stop_after = stop_after
        self._obs = obs
        self._tracer = tracer
        #: Steps at which an injection actually happened.
        self.injections: List[int] = []

    def maybe_inject(self, step: int) -> bool:
        """Inject if ``step`` is scheduled; returns True when it did."""
        if self._stop_after is not None and step >= self._stop_after:
            return False
        due = (
            step in self._at
            if self._at is not None
            else step > 0 and step % self._period == 0
        )
        if not due:
            return False
        hits = corrupt_random(
            self._routing,
            seed=self._rng.randrange(1 << 30),
            fraction=self._fraction,
        )
        self.injections.append(step)
        if self._obs is not None:
            self._obs.counter(
                "faults_injected_total", action="corrupt_routing"
            ).inc()
        if self._tracer is not None:
            self._tracer.record_fault(
                "corrupt_routing",
                {"fraction": self._fraction, "entries_hit": hits},
                step=step,
            )
        return True

    def before_step(self, simulation) -> None:
        """The injector as a :meth:`Simulation.run` ``before_step`` hook:
        inject if the step about to execute is scheduled."""
        self.maybe_inject(simulation.sim.step_count)
