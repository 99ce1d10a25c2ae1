"""Test oracles, once ``full_scan=``/``debug_check=``/``engine="deepcopy"``: the classic
full-scan engine, a cache-vs-fresh-scan cross-check, clone-per-transition explorers."""

import copy
from collections import deque

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
    simulation.sim = engine_cls(old.n, old.stack, old.daemon)
    return simulation


def _scan(stack, n):
    return {p: acts for p in range(n) if (acts := stack.enabled_actions(p))}


class FullScanSimulator(Simulator):
    """Every guard of every processor, every step.  ``dirty_after`` is never
    drained, so the protocols stay all-dirty: plain scans, full queue sweeps."""

    def enabled_map(self):
        enabled = _scan(self.stack, self.n)
        self.guard_evals = self.stack.component_evals - self._guard_base
        return enabled


def fresh_actions(stack, pid):
    """Enabled actions of ``pid`` re-derived from the configuration alone: no
    component cache, no ``next_hop`` cache, no evaluation counting."""
    for proto in stack.protocols:
        dests = proto._active_sorted(pid)
        hops = getattr(proto, "_nh_cache", None)  # a ForwardingProtocol's
        if hops is not None:
            proto._nh_cache = {}
        try:
            actions = [a for d in dests for a in proto._eval_component(pid, d)]
        finally:
            if hops is not None:
                proto._nh_cache = hops
        if actions:
            return actions
    return []


class CheckedSimulator(Simulator):
    """The product engine, cross-checked after every guard evaluation."""

    def enabled_map(self):
        enabled = super().enabled_map()
        diff = {}
        for pid in range(self.n):
            cached, fresh = enabled.get(pid, []), fresh_actions(self.stack, pid)
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
    root = _fresh_system(checker._make_system)
    root.advance_env()
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
            enabled = {p: child.stack().enabled_actions(p) for p in selection}
            try:
                for pid, action_index in selection.items():
                    enabled[pid][action_index].execute()
            except ReproError as exc:
                if violations is None:
                    raise
                violations.append(f"depth {depth + 1}: {exc}")
                continue
            child.step += 1
            child.advance_env()
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
            enabled = _scan(system.stack(), system.proto.net.n)
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
            enabled = _scan(system.stack(), system.proto.net.n)
            outstanding.append(self._node_metadata(system))
            enabled_pids.append(frozenset(enabled))
            return enabled

        _, edges, note = _clone_bfs(self, visit)
        n = len(edges)  # a truncated search drops what it reached but never expanded
        edges = [[(t, pids) for t, pids in out if t < n] for out in edges]
        return outstanding[:n], enabled_pids[:n], edges, note is not None, note
