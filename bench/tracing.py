"""In-memory spans recorded from outside the program under test.

A traced child process replaces a layer's entry point (a class attribute,
an instance attribute or a module global) with a wrapper that records one
span per call: name, start, end and the span that was open when it began.
Nothing under ``src/`` changes, and an untraced child never imports this
module's wrappers, so end-to-end numbers are measured on the unmodified
program.

Spans live in four parallel arrays (about 24 bytes each — a ``sim-churn``
rep records over a million) and are summarised after the timed region.  A
layer's *self time* is its span's duration minus the part its child spans
cover, so the self times of one rep add up to its root span.
"""

from __future__ import annotations

import json
from array import array
from time import perf_counter
from typing import Any, Callable, Dict, List

#: Parent index of a span opened while no other span was open.
NO_PARENT = -1


class Tracer:
    """Span store for one child process (one thread, one event loop)."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: Indices of the currently open spans, innermost last.
        self.stack: List[int] = []
        #: Counts taken at the same boundaries as the spans (a wrapper that
        #: sees the records it forwards can count them where they pass).
        self.counters: Dict[str, float] = {}

    def intern(self, name: str) -> int:
        """The small integer the arrays store for ``name``."""
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        """Begin a span; returns its index for :meth:`close`."""
        stack = self.stack
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else NO_PARENT)
        self.end.append(0.0)
        stack.append(index)
        # The clock is read last on the way in and first on the way out, so
        # the bookkeeping above lands in the parent's self time.
        self.start.append(perf_counter())
        return index

    def close(self, index: int) -> None:
        """End the span ``index``.  Spans opened inside it and still open
        (a coroutine suspended mid-span) are ended at the same instant; a
        span such a sweep already ended is left alone."""
        now = perf_counter()
        stack = self.stack
        if stack and stack[-1] == index:
            stack.pop()
            self.end[index] = now
        elif index in stack:
            top = NO_PARENT
            while top != index:
                top = stack.pop()
                self.end[top] = now

    # -- wrappers ------------------------------------------------------------

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with one span named ``name`` around every call."""
        nid = self.intern(name)
        open_, close = self.open, self.close

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def wrap_async(self, fn: Callable, name: str) -> Callable:
        """Like :meth:`wrap` for a coroutine function.  The span covers the
        awaited call; the transports' ``send`` never suspends at this
        commit, so the stack discipline holds (and :meth:`close` tolerates
        it when it does not)."""
        nid = self.intern(name)
        open_, close = self.open, self.close

        async def traced(*args: Any, **kwargs: Any) -> Any:
            index = open_(nid)
            try:
                return await fn(*args, **kwargs)
            finally:
                close(index)

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (class, instance or module attribute) by
        its traced wrapper."""
        setattr(owner, attr, self.wrap(getattr(owner, attr), name))

    # -- summaries -----------------------------------------------------------

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``count``, ``total_s`` (sum of durations) and
        ``self_s`` (durations minus the time covered by child spans)."""
        n = len(self.start)
        covered = array("d", bytes(8 * n))
        out: Dict[str, Dict[str, float]] = {
            name: {"count": 0, "total_s": 0.0, "self_s": 0.0}
            for name in self.names
        }
        rows = [out[name] for name in self.names]
        start, end, parent, name_id = self.start, self.end, self.parent, self.name_id
        # A child's index is always larger than its parent's, so one reverse
        # pass sees every child before the span that contains it.
        for i in range(n - 1, -1, -1):
            duration = end[i] - start[i]
            row = rows[name_id[i]]
            row["count"] += 1
            row["total_s"] += duration
            row["self_s"] += duration - covered[i]
            p = parent[i]
            if p != NO_PARENT:
                covered[p] += duration
        return out

    def dump(self, path: str) -> None:
        """Write every span as one JSON line ``[name, start, end, parent]``
        (``parent`` is a line number, -1 for roots)."""
        names = self.names
        with open(path, "w", encoding="utf-8") as fh:
            for i in range(len(self.start)):
                fh.write(
                    json.dumps(
                        [names[self.name_id[i]], self.start[i], self.end[i],
                         self.parent[i]]
                    )
                )
                fh.write("\n")


def total_s(summary: Dict[str, Dict[str, float]], name: str) -> float:
    """Summed duration of the spans called ``name`` (0 when none ran)."""
    return summary.get(name, {}).get("total_s", 0.0)


def self_s(summary: Dict[str, Dict[str, float]], name: str) -> float:
    """Summed self time of the spans called ``name`` (0 when none ran)."""
    return summary.get(name, {}).get("self_s", 0.0)


def count(summary: Dict[str, Dict[str, float]], name: str) -> int:
    """Number of spans called ``name``."""
    return int(summary.get(name, {}).get("count", 0))
