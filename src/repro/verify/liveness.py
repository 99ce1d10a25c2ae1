"""Fairness-aware livelock detection on the reachable state graph.

Safety model checking (:mod:`repro.verify.modelcheck`) asks "is any bad
configuration reachable?".  Liveness asks "can the adversary keep a valid
message undelivered *forever*?"  Under a weakly fair daemon the adversary
must eventually select every continuously enabled processor, so an
infinite starving execution corresponds to a cycle in the reachable state
graph in which

* some valid message is outstanding in **every** state of the cycle, and
* every processor that is enabled in **every** state of the cycle
  executes in at least one transition of the cycle (otherwise the cycle
  is not weakly fair — the daemon would be ignoring a continuously
  enabled processor, which weak fairness forbids).

:class:`LivenessChecker` builds the full reachable graph of a small
instance (with a replenishing workload so adversarial traffic can recur),
finds its strongly connected components, and reports any SCC satisfying
both conditions — a *fair livelock*, i.e. a genuine starvation
counterexample.  The paper's FIFO ``choice`` makes SSMFP free of them;
the ``"fixed"`` ablation policy is not (the A2 starvation, now found
exhaustively).

Like the safety checker, the graph is built serially by restoring state
vectors into one reused system (keeping the incremental guard caches
engaged).  The clone-per-transition differential oracle lives in
``tests/reference_engines.py``.

A selection fan-out overflow, or a selection whose execution violates
the specification (the instance is not even safe), marks the result
``truncated`` with an explanatory :attr:`LivenessResult.note` — the same
convention as :meth:`ModelChecker.run`.  A truncated graph cannot prove
starvation-freedom (``ok`` stays False), but the partial result still
reports any livelock already found instead of discarding the search.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.errors import SelectionOverflow
from repro.verify.modelcheck import _System, ProgressMeter, enumerate_selections


@dataclass
class FairLivelock:
    """One starvation counterexample: an SCC of the reachable graph."""

    states: int
    starved_uids: Tuple[int, ...]
    sample_cycle_length: int


@dataclass
class LivenessResult:
    """Outcome of a liveness exploration."""

    states: int
    transitions: int
    sccs: int
    truncated: bool
    livelocks: List[FairLivelock] = field(default_factory=list)
    #: Why a truncated search stopped early (state cap, selection
    #: fan-out, a specification violation); None for complete runs.
    note: Optional[str] = None

    @property
    def ok(self) -> bool:
        """True iff exploration completed and no fair livelock exists."""
        return not self.livelocks and not self.truncated


class LivenessChecker:
    """Exhaustive fair-livelock search (small instances only)."""

    def __init__(
        self,
        make_system,
        max_states: int = 30_000,
        max_selection_width: int = 1024,
        ignore_pending: Optional[Set[int]] = None,
        log_every: int = 0,
        on_progress=None,
        obs=None,
    ) -> None:
        self._make_system = make_system
        self._max_states = max_states
        self._max_width = max_selection_width
        #: Processors whose pending submissions do not count as starvation
        #: (deliberately infinite pressure sources of the test harness).
        self._ignore_pending = frozenset(ignore_pending or ())
        self._log_every = log_every
        self._on_progress = on_progress
        self._obs = obs

    def _fresh(self) -> _System:
        made = self._make_system()
        if isinstance(made, tuple):
            proto, extra = made
            return _System(proto, extra)
        return _System(made)

    # -- graph construction -------------------------------------------------------

    def _node_metadata(self, system: _System) -> FrozenSet[int]:
        """Starvation targets of the *current* configuration:
        generated-but-undelivered uids, plus *pending submissions* that
        were never even generated — encoded as ``-(p+1)`` markers (rule R1
        starvation, the A2 mode)."""
        hl = system.proto.hl
        pending_markers = frozenset(
            -(p + 1)
            for p in range(system.proto.net.n)
            if p not in self._ignore_pending and hl.pending_count(p) > 0
        )
        return frozenset(system.proto.ledger.outstanding_uids()) | pending_markers

    def graph_node(self, system: _System, vec):
        """One node of the reachable graph: restore the configuration,
        read the starvation metadata and follow every daemon selection
        through :meth:`_System.successors`.  Returns ``(metadata,
        enabled-pid frozenset, [(child_vec, child_key, executing-pid
        frozenset), ...])`` — or, when the node cannot be expanded, the
        reason as a string: the fan-out exceeds the width cap (nothing
        executed), or a selection's execution violated the specification
        (the instance is not safe, so its graph is not the protocol's)."""
        system.restore(vec)
        meta = self._node_metadata(system)
        enabled = system.enabled()
        try:
            selections = enumerate_selections(enabled, self._max_width)
        except SelectionOverflow as exc:
            return str(exc)
        children = []
        for selection, child_vec, key, error in system.successors(
            vec, enabled, selections
        ):
            if error is not None:
                return f"selection {selection}: {error}"
            children.append((child_vec, key, frozenset(selection)))
        return meta, frozenset(enabled), children

    def _explore(self):
        """Build the reachable graph.  Returns (metadata, enabled pids,
        edges, truncated, note)."""
        system = self._fresh()
        system.advance_env()
        root_vec = system.snapshot()
        keys: Dict[Tuple, int] = {system.canon(root_vec): 0}
        vecs: List[Optional[Tuple]] = [root_vec]
        # Per node: outstanding uid set, set of enabled pids.
        outstanding: List[FrozenSet[int]] = []
        enabled_pids: List[FrozenSet[int]] = []
        # Edges annotated with the executing pid set.
        edges: List[List[Tuple[int, FrozenSet[int]]]] = []
        truncated = False
        note: Optional[str] = None
        meter = ProgressMeter(
            log_every=self._log_every, on_progress=self._on_progress,
            obs=self._obs, engine="liveness-snapshot",
        )

        index = 0
        while index < len(vecs):
            if index >= self._max_states:
                truncated = True
                note = f"state cap {self._max_states} reached"
                break
            node = self.graph_node(system, vecs[index])
            if isinstance(node, str):
                truncated = True
                note = f"node {index}: {node}"
                break
            meta, enabled_fs, children = node
            outstanding.append(meta)
            enabled_pids.append(enabled_fs)
            edges.append([])
            for child_vec, key, pids in children:
                target = keys.get(key)
                if target is None:
                    target = len(vecs)
                    keys[key] = target
                    vecs.append(child_vec)
                edges[index].append((target, pids))
            vecs[index] = None  # free memory; only metadata needed now
            index += 1
            meter.tick(index, len(vecs) - index, 0)
        # Nodes appended beyond the cap have no metadata; trim edges to
        # explored nodes only.
        explored = len(edges)
        for lst in edges:
            lst[:] = [(t, pids) for t, pids in lst if t < explored]
        meter.finish(explored, sum(len(e) for e in edges), 0)
        return outstanding, enabled_pids, edges, truncated, note

    # -- SCC + fairness filtering --------------------------------------------------

    @staticmethod
    def _sccs(n: int, edges) -> List[List[int]]:
        """Tarjan (iterative)."""
        index_counter = [0]
        stack: List[int] = []
        lowlink = [0] * n
        number = [-1] * n
        on_stack = [False] * n
        result: List[List[int]] = []

        for root in range(n):
            if number[root] != -1:
                continue
            work = [(root, 0)]
            while work:
                node, pi = work[-1]
                if pi == 0:
                    number[node] = lowlink[node] = index_counter[0]
                    index_counter[0] += 1
                    stack.append(node)
                    on_stack[node] = True
                recurse = False
                successors = edges[node]
                while pi < len(successors):
                    succ = successors[pi][0]
                    pi += 1
                    if number[succ] == -1:
                        work[-1] = (node, pi)
                        work.append((succ, 0))
                        recurse = True
                        break
                    if on_stack[succ]:
                        lowlink[node] = min(lowlink[node], number[succ])
                if recurse:
                    continue
                if pi >= len(successors):
                    if lowlink[node] == number[node]:
                        comp = []
                        while True:
                            w = stack.pop()
                            on_stack[w] = False
                            comp.append(w)
                            if w == node:
                                break
                        result.append(comp)
                    work.pop()
                    if work:
                        parent = work[-1][0]
                        lowlink[parent] = min(lowlink[parent], lowlink[node])
        return result

    def run(self) -> LivenessResult:
        """Explore and report fair livelocks.  Never raises on fan-out
        overflow or on a specification violation met while executing: the
        result comes back ``truncated`` with a ``note``."""
        outstanding, enabled_pids, edges, truncated, note = self._explore()
        n = len(edges)
        sccs = self._sccs(n, edges)
        livelocks: List[FairLivelock] = []
        for comp in sccs:
            comp_set = set(comp)
            internal = [
                (u, t, pids)
                for u in comp
                for t, pids in edges[u]
                if t in comp_set
            ]
            if not internal:
                continue  # trivial SCC without a self-transition
            starved = frozenset.intersection(*(outstanding[u] for u in comp))
            # Positive uids: generated valid messages; negative markers:
            # submissions whose generation (R1) starves.  Invalid garbage
            # never appears (only valid uids and markers are tracked).
            if not starved:
                continue
            # Weak fairness: every processor enabled in EVERY state of the
            # cycle must execute in some internal transition.
            always_enabled = frozenset.intersection(
                *(enabled_pids[u] for u in comp)
            )
            executed = set()
            for _, _, pids in internal:
                executed |= pids
            if always_enabled.issubset(executed):
                livelocks.append(
                    FairLivelock(
                        states=len(comp),
                        starved_uids=tuple(sorted(starved)),
                        sample_cycle_length=len(internal),
                    )
                )
        return LivenessResult(
            states=n,
            transitions=sum(len(e) for e in edges),
            sccs=len(sccs),
            truncated=truncated,
            livelocks=livelocks,
            note=note,
        )
