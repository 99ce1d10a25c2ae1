"""A fixed piece of pure-Python work, timed to tell how fast the box is now.

This box slows every program down by 10-50 % for seconds to minutes at a
time (README, "Noise on this box"), so a ``BENCHMARK.json`` run times
:func:`spin` right before and after everything it measures and divides the
measured time by :func:`slowdown`: the time reported is the time the work
takes at this box's undisturbed speed.  ``spin`` belongs to the benchmark,
not to the program under test, so a change to the program moves the
measured time and leaves the divisor alone.
"""

from __future__ import annotations

import gc
from time import perf_counter

#: Seconds one :func:`spin` takes here when nothing else runs (the least of
#: 300 in a calm minute).  Only its constancy matters: it makes a
#: normalised time read as seconds.
REFERENCE_S = 0.0380


class _Cell:
    __slots__ = ("key", "pair")

    def __init__(self, key: int, pair: tuple) -> None:
        self.key = key
        self.pair = pair


def spin() -> float:
    """Do the fixed work — object, tuple, dict and list traffic like the
    program's own — and return the seconds it took.  The collector is off
    meanwhile: a collection costs more the larger the caller's heap is, and
    the work has to cost the same in every process."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = perf_counter()
        for _ in range(12):
            table: dict = {}
            cells: list = []
            total = 0
            for i in range(4_000):
                cell = _Cell(i, (i, i + 1))
                table[(i & 255, i % 7)] = cell
                cells.append(cell)
                total += cell.key + len(table)
                if i & 63 == 0:
                    cells = [c for c in cells if c.key & 1]
        return perf_counter() - started
    finally:
        if collecting:
            gc.enable()


def slowdown(before_s: float, after_s: float) -> float:
    """How much slower than undisturbed the box ran between two spins."""
    return (before_s + after_s) / (2.0 * REFERENCE_S)
