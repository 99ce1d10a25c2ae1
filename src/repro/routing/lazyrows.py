"""Lazily materialized per-destination table rows.

Both routing providers keep per-destination rows (``dist``/``hop`` for the
self-stabilizing protocol, the BFS parent row for the static tables) whose
*default* content is computable on demand — one BFS per destination.  At
production scale the destination space is huge and mostly idle, so the
rows are materialized only when first touched: an absent row reads exactly
as its fill function would produce it, which for routing means "the
converged fixpoint" — the same absent≡clean invariant the forwarding
buffers rely on.

``LazyRows`` hands out the **real list** on ``[d]`` access (not a copy,
not a read-only view), so reads cost one lookup.  Only the owning
provider writes into it: ``SelfStabilizingBFSRouting.set_entry`` is the
one writer of its ``dist`` / ``hop`` rows, because a write must also
reach the journal and the dirty channels.
"""

from __future__ import annotations

from typing import Callable, Dict, List, TypeVar

T = TypeVar("T")


class LazyRows:
    """``rows[d]`` — get-or-create the row for destination ``d``.

    The fill function runs once per destination; the returned list is
    cached and shared with every subsequent access, so in-place mutations
    persist.  Reading ``rows`` (the materialized ones) never materializes
    anything, and ``evict`` drops a row so the next access re-fills it.
    """

    __slots__ = ("rows", "_fill")

    def __init__(self, fill: Callable[[int], List[T]]) -> None:
        #: The materialized rows, ``{d: row}``: read it, never write it.
        self.rows: Dict[int, List[T]] = {}
        self._fill = fill

    def __getitem__(self, d: int) -> List[T]:
        row = self.rows.get(d)
        if row is None:
            row = self.rows[d] = self._fill(d)
        return row

    def evict(self, d: int) -> None:
        """Forget the row; the next access re-runs the fill function."""
        self.rows.pop(d, None)

    def __eq__(self, other: object) -> bool:
        """Logical equality: two tables are equal iff every row — absent
        rows read through their fill functions — compares equal.  Only the
        union of materialized rows needs examining: a row absent on both
        sides is fill-identical by determinism of the fill."""
        if not isinstance(other, LazyRows):
            return NotImplemented
        for d in self.rows.keys() | other.rows.keys():
            if self[d] != other[d]:
                return False
        return True
