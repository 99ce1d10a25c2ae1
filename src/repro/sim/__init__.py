"""Simulation assembly, metrics and reporting.

:func:`build_simulation` wires a network, a routing provider (static or the
self-stabilizing protocol, optionally corrupted), the SSMFP core, a
workload and a daemon into a ready-to-run :class:`Simulation`;
:func:`build_baseline_simulation` does the same for the Merlin-Schweitzer
baseline.
The experiments and benchmarks are thin layers over this module.
"""

from repro.sim.runner import (
    Simulation,
    build_baseline_simulation,
    build_simulation,
    delivered_and_drained,
)
from repro.sim.metrics import (
    RoundClock,
    delivery_latency_rounds,
    moves_per_delivery,
)
from repro.sim.reporting import format_table, set_table_sink

__all__ = [
    "Simulation",
    "build_simulation",
    "build_baseline_simulation",
    "delivered_and_drained",
    "RoundClock",
    "delivery_latency_rounds",
    "moves_per_delivery",
    "format_table",
    "set_table_sink",
]
