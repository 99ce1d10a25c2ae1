"""The one shape every sweep experiment has.

A sweep is a ``run_one(**point, seed=...)`` measured at every point of a
grid of named axes, the runs of one point folded over the seeds into one
row, and the rows rendered as one table.  The experiment modules declare
that — function, axes, seeds, fold, title — as a :class:`Sweep`; the loop,
the fold and the rendering live here once.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import product
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.network.graph import Network
from repro.network.topologies import topology_by_name
from repro.sim.reporting import format_table

Row = Dict[str, object]


def network_of(label: str, **kwargs) -> Network:
    """The network a table label names: ``"ring(10)"``, ``"grid(3x3)"``,
    ``"lollipop(5,4)"`` — a :func:`topology_by_name` builder and its
    sizes (``kwargs`` carry what a label does not show, e.g. a seed)."""
    name, _, sizes = label.rstrip(")").partition("(")
    return topology_by_name(
        name, *(int(size) for size in re.split("[x,]", sizes) if size), **kwargs
    )


def worst(key: Callable[[Row], object]) -> Callable[[List[Row]], Row]:
    """The fold most tables use: keep the seed whose row maximises ``key``
    (the first such seed on a tie)."""
    return lambda runs: max(runs, key=key)


@dataclass(frozen=True)
class Sweep:
    """One experiment table, declared.

    ``axes`` maps ``run_one``'s parameter names to the values swept, the
    last axis varying fastest; ``fold`` turns the runs of one grid point
    (one per seed, in seed order) into that point's row; ``derive``, when
    given, sees the finished row list once — to check it, or to add rows
    or columns computed across rows.  The table's columns are the rows'
    keys, in first-appearance order.
    """

    title: str
    run_one: Callable[..., Row]
    axes: Mapping[str, Sequence[object]]
    seeds: Sequence[int]
    fold: Callable[[List[Row]], Row]
    derive: Optional[Callable[[List[Row]], List[Row]]] = None

    def rows(self, seeds: Optional[Sequence[int]] = None, **axes) -> List[Row]:
        """Run the sweep; ``seeds`` and any axis may be overridden (the
        tests and examples run small corners of the published grids)."""
        unknown = sorted(set(axes) - set(self.axes))
        if unknown:
            raise TypeError(f"no such axis: {unknown}; axes: {list(self.axes)}")
        grid = {**self.axes, **axes}
        rows = [
            self.fold(
                [
                    self.run_one(**dict(zip(grid, point)), seed=seed)
                    for seed in (self.seeds if seeds is None else seeds)
                ]
            )
            for point in product(*grid.values())
        ]
        return rows if self.derive is None else self.derive(rows)

    def report(self, **overrides) -> str:
        """The regenerated table (what ``repro experiment <id>`` prints)."""
        return format_table(self.rows(**overrides), title=self.title)
