"""Deterministic gates too slow for tier-1 (just under 3 min together).

Not collected by a bare ``pytest`` — the file name, like
``tests/reference_*.py``, is the whole mechanism.  Run

    PYTHONPATH=src python -m pytest tests/slow_gates.py -q

for a change that touches ``verify/``, ``core/choice.py``,
``core/buffers.py`` or ``app/higher_layer.py``; CI's ``slow-gates`` job
runs it on every PR.  Counts, ceilings and state-set sizes only, like
tier-1: wall-clock is ``python -m bench``'s (``verify-small4``).
"""

import gc
import tracemalloc

import pytest

from repro.app.workload import hotspot_workload
from repro.experiments.exhaustive import _instances
from repro.network.topologies import ring_network
from repro.sim.runner import build_simulation
from repro.verify.modelcheck import ModelChecker

from tests.helpers import (
    materialized_buffer_destinations,
    materialized_queue_destinations,
)

from tests.test_engine_pins import check_pair_sweep
from tests.test_experiments import assert_report_matches_golden

# Cheapest heap first: run after X5's 53k-state exploration, the sweeps
# took three times as long.


@pytest.mark.parametrize(
    "pairs, n", [(100_000, 50_000), (1_000_000, 200_000)]
)
def test_pair_sweep_peak_is_independent_of_the_pair_count(pairs, n):
    check_pair_sweep(pairs, n)


def _engine_peak(n):
    """tracemalloc peak of building the full engine (protocol, routing,
    higher layer, simulator) on a ring of ``n`` and running a 300-step
    hotspot burst, and the destinations left materialized."""
    gc.collect()
    tracemalloc.start()
    sim = build_simulation(
        ring_network(n),
        workload=hotspot_workload(n, dest=0, per_source=1, seed=1),
        routing_mode="static",
        seed=1,
    )
    sim.run(300, raise_on_limit=False)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    forwarding = sim.forwarding
    return peak, (
        materialized_buffer_destinations(forwarding.bufs)
        | materialized_queue_destinations(forwarding.queues)
    )


def test_engine_memory_grows_with_n_not_n_squared():
    small, _ = _engine_peak(128)
    large, destinations = _engine_peak(512)
    # The dense layer grew 16x over this span.
    assert large <= 6 * small, (
        f"engine peak {small} -> {large} bytes from n=128 to n=512 "
        f"({large / small:.1f}x, limit 6x)"
    )
    # Hotspot traffic materializes only the hot destination's components.
    assert len(destinations) <= 8


def test_line4_under_por_reaches_the_golden_state_set():
    """Partial-order reduction prunes edges (decomposable composite
    selections), never states: the ``line(4)`` row of X5.txt, with about
    half its 434,012 transitions."""
    make = next(make for name, make, _ in _instances() if "line(4)" in name)
    result = ModelChecker(
        make, reduction="por", max_states=200_000, max_selection_width=20_000,
    ).run()
    assert not result.truncated
    assert result.violations == []
    assert (result.states, result.terminal_states) == (53_504, 1)
    assert result.transitions == 215_785


def test_x5_report_is_byte_identical():
    """All seven verdict rows — four safe instances, the two ablations'
    counterexamples, and ``line(4)`` exhausted unreduced (53,504 states /
    434,012 transitions), which only this test does."""
    assert_report_matches_golden("X5")
