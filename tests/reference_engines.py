"""Test oracles, once ``full_scan=``/``debug_check=``/``engine="deepcopy"``: the classic
full-scan engine, a cache-vs-fresh-scan cross-check, clone-per-transition explorers.

The classic engine lives here only: it reconciles every queue of every active
component each step and re-derives every guard from the configuration, so it
shares no component cache, no re-sync set and no serving path with the product
engine it checks."""

import copy
from collections import deque

from repro.core.family import ForwardingProtocol
from repro.core.invariants import InvariantChecker
from repro.errors import InvariantViolation, ReproError, SelectionOverflow
from repro.statemodel.scheduler import Simulator
from repro.verify.liveness import LivenessChecker
from repro.verify.modelcheck import (
    ModelChecker,
    ModelCheckResult,
    _fresh_system,
    enumerate_selections,
)


def use_engine(simulation, engine_cls):
    """Swap a not-yet-stepped ``Simulation``'s engine for ``engine_cls``."""
    old = simulation.sim
    simulation.sim = engine_cls(old.n, old._stack, old.daemon)
    return simulation


def _fresh(stack, pid):
    """``(actions, components examined)`` at ``pid``, re-derived from the
    configuration alone: no component cache, no ``next_hop`` cache."""
    evals = 0
    for proto in stack.protocols:
        dests = proto._active_sorted(pid)
        evals += len(dests)
        hops = getattr(proto, "_nh_cache", None)  # a ForwardingProtocol's
        if hops is not None:
            proto._nh_cache = {}
        try:
            actions = [a for d in dests for a in proto._eval_component(pid, d)]
        finally:
            if hops is not None:
                proto._nh_cache = hops
        if actions:
            return actions, evals
    return [], evals


def fresh_actions(stack, pid):
    """Enabled actions of ``pid`` re-derived from the configuration alone."""
    return _fresh(stack, pid)[0]


def _scan(stack, n):
    return {p: acts for p in range(n) if (acts := fresh_actions(stack, p))}


def _reconcile_all(stack):
    """The classic environment phase's queue sweep: every queue of every
    active component, whatever the re-sync set recorded, through a fresh
    ``next_hop`` cache.  ``aged_fair``
    already sweeps in ``before_step`` (a second sweep would tick its
    wait-ages twice); every other policy's reconcile is idempotent."""
    for proto in stack.protocols:
        if isinstance(proto, ForwardingProtocol) and not proto._sync_every_step:
            proto._nh_cache = {}
            proto._full_reconcile()


class FullScanSimulator(Simulator):
    """Every active queue reconciled and every guard of every processor
    re-derived, every step.  ``dirty_after`` is never drained."""

    def enabled_map(self):
        stack = self._stack
        _reconcile_all(stack)
        enabled = {}
        for pid in range(self.n):
            actions, evals = _fresh(stack, pid)
            self.guard_evals += evals
            if actions:
                enabled[pid] = actions
        return enabled


class CheckedSimulator(Simulator):
    """The product engine, cross-checked after every guard evaluation."""

    def enabled_map(self):
        enabled = super().enabled_map()
        diff = {}
        for pid in range(self.n):
            cached, fresh = enabled.get(pid, []), fresh_actions(self._stack, pid)
            if cached != fresh:  # actions are records: compared by value
                diff[pid] = tuple(
                    [(a.rule, a.protocol, a.info) for a in actions]
                    for actions in (cached, fresh)
                )
        if diff:
            raise InvariantViolation(
                f"incremental enabled-set cache diverged from full scan at "
                f"step {self.step_count}: {{pid: (cached, fresh)}} = {diff}"
            )
        return enabled


def _clone_bfs(checker, visit, violations=None):
    """Breadth-first search; node ids are BFS indices.  ``visit(system, depth)``
    returns the enabled map to expand; every daemon selection runs on its own
    ``copy.deepcopy`` (a ``ReproError`` there goes to ``violations`` if given).
    Returns ``(canon -> node id, per-node [(target, pids)], early-stop note)``."""
    def advance_env(system):
        system.advance_env()
        _reconcile_all(system._stack)

    root = _fresh_system(checker._make_system)
    advance_env(root)
    keys = {root.canon(): 0}
    frontier, edges = deque([(root, 0)]), []
    while frontier:
        if len(edges) >= checker._max_states:
            return keys, edges, f"state cap {checker._max_states} reached"
        system, depth = frontier.popleft()
        try:
            selections = enumerate_selections(visit(system, depth), checker._max_width)
        except SelectionOverflow as exc:
            return keys, edges, f"node {len(edges)} (depth {depth}): {exc}"
        edges.append([])
        for selection in selections:
            child = copy.deepcopy(system)
            enabled = {p: fresh_actions(child._stack, p) for p in selection}
            try:
                for pid, action_index in selection.items():
                    enabled[pid][action_index].execute()
            except ReproError as exc:
                if violations is None:
                    raise
                violations.append(f"depth {depth + 1}: {exc}")
                continue
            child.step += 1
            advance_env(child)
            key = child.canon()
            if key not in keys:
                keys[key] = len(keys)
                frontier.append((child, depth + 1))
            edges[-1].append((keys[key], frozenset(selection)))
    return keys, edges, None


class DeepcopyModelChecker(ModelChecker):
    """Unreduced serial safety search, one cloned system per state."""

    def run(self):
        result = ModelCheckResult(
            states=0, transitions=0, terminal_states=0, max_frontier=0, truncated=False
        )
        def visit(system, depth):
            def say(text):
                result.violations.append(f"depth {depth}: {text}")
            result.states += 1
            try:
                InvariantChecker(system.proto).check()
            except ReproError as exc:
                say(exc)
                return {}
            enabled = _scan(system._stack, system.proto.net.n)
            if not enabled:
                result.terminal_states += 1
                ledger = system.proto.ledger
                if not ledger.all_valid_delivered():
                    uids = sorted(ledger.outstanding_uids())
                    say(f"terminal configuration with undelivered uids {uids}")
                if system.proto.hl.total_pending():
                    say("terminal configuration with pending submissions")
            return enabled

        keys, edges, result.note = _clone_bfs(self, visit, result.violations)
        result.truncated = result.note is not None
        result.transitions = sum(map(len, edges))
        result.canons = frozenset(keys)
        return result


class DeepcopyLivenessChecker(LivenessChecker):
    """The reachable graph built from cloned systems; SCC analysis inherited."""

    def _explore(self):
        outstanding, enabled_pids = [], []
        def visit(system, depth):
            enabled = _scan(system._stack, system.proto.net.n)
            outstanding.append(self._node_metadata(system))
            enabled_pids.append(frozenset(enabled))
            return enabled

        _, edges, note = _clone_bfs(self, visit)
        n = len(edges)  # a truncated search drops what it reached but never expanded
        edges = [[(t, pids) for t, pids in out if t < n] for out in edges]
        return outstanding[:n], enabled_pids[:n], edges, note is not None, note
