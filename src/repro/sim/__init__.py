"""Simulation assembly, metrics and reporting.

:func:`build_simulation` wires a network, a routing provider (static or the
self-stabilizing protocol, optionally corrupted), the SSMFP core, a
workload and a daemon into a ready-to-run :class:`Simulation`;
:func:`build_baseline_simulation` does the same for the Merlin-Schweitzer
baseline.
The experiments and benchmarks are thin layers over this module.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "runner": "Simulation build_baseline_simulation build_simulation "
              "delivered_and_drained",
    "metrics": "RoundClock delivery_latency_rounds moves_per_delivery",
    "reporting": "format_table set_table_sink",
})

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
