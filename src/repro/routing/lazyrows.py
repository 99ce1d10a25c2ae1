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

from typing import Callable, Dict, Iterator, List, Set, Tuple, TypeVar

T = TypeVar("T")


class LazyRows:
    """``rows[d]`` — get-or-create the row for destination ``d``.

    The fill function runs once per destination; the returned list is
    cached and shared with every subsequent access, so in-place mutations
    persist.  ``peek``/``materialized`` never materialize anything, and
    ``evict`` drops a row so the next access re-fills it fresh.
    """

    __slots__ = ("_rows", "_fill")

    def __init__(self, fill: Callable[[int], List[T]]) -> None:
        self._rows: Dict[int, List[T]] = {}
        self._fill = fill

    def __getitem__(self, d: int) -> List[T]:
        row = self._rows.get(d)
        if row is None:
            row = self._rows[d] = self._fill(d)
        return row

    def peek(self, d: int):
        """The materialized row or None — never fills."""
        return self._rows.get(d)

    def evict(self, d: int) -> None:
        """Forget the row; the next access re-runs the fill function."""
        self._rows.pop(d, None)

    def materialized(self) -> Set[int]:
        """Destinations with a materialized row (copy, safe to mutate)."""
        return set(self._rows)

    def items(self) -> Iterator[Tuple[int, List[T]]]:
        """Materialized ``(d, row)`` pairs (unordered)."""
        return iter(self._rows.items())

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, d: int) -> bool:
        return d in self._rows

    def __eq__(self, other: object) -> bool:
        """Logical equality: two tables are equal iff every row — absent
        rows read through their fill functions — compares equal.  Only the
        union of materialized rows needs examining: a row absent on both
        sides is fill-identical by determinism of the fill."""
        if not isinstance(other, LazyRows):
            return NotImplemented
        for d in self.materialized() | other.materialized():
            if self[d] != other[d]:
                return False
        return True
