"""Canon stability: the canonical form of a configuration is a function
of the configuration alone, independent of the path a system took to it.

The sparse state tables materialize per-destination rows lazily and may
evict them again; a system that visited many configurations carries a
different allocation history than a fresh one restored straight into the
same vector.  The orbit-stable canon ordering contract
(``repro/statemodel/snapshot.py``) requires those histories to be
invisible: evicted rows and never-allocated rows canonicalize
identically.  The exhaustive checkers lean on this — the seen-set dedups
canons produced by one long-lived churned system."""

import random

import pytest

from repro.core.corruption import plant_invalid_message
from repro.network.topologies import line_network
from repro.verify.modelcheck import _System

from tests.helpers import CanonModelChecker, make_ssmfp
from tests.reference_engines import DeepcopyModelChecker


def _make():
    net = line_network(3)
    proto = make_ssmfp(net)
    plant_invalid_message(proto, 2, 1, "E", "g", last=1, color=0)
    plant_invalid_message(proto, 0, 1, "R", "g", last=0, color=1)
    proto.hl.submit(0, "m", 2)
    return proto


def _fresh_system():
    system = _System(_make())
    system.advance_env()
    return system


def _random_walk(system, steps, seed):
    """Walk ``steps`` random daemon choices, returning the visited
    ``(vector, canon)`` trail (including the start)."""
    rng = random.Random(seed)
    stack = system._stack
    n = system.proto.net.n
    trail = [(system.snapshot(), system.canon())]
    for _ in range(steps):
        stack.dirty_after({})
        enabled = {p: stack.enabled_actions(p) for p in range(n)}
        enabled = {p: a for p, a in enabled.items() if a}
        if not enabled:
            break
        pid = rng.choice(sorted(enabled))
        rng.choice(enabled[pid]).execute()
        system.step += 1
        system.advance_env()
        trail.append((system.snapshot(), system.canon()))
    return trail


class TestCanonStability:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_fresh_system_reproduces_walk_canons(self, seed):
        # A system that never materialized any row beyond the root must
        # canonicalize every restored vector exactly as the walker that
        # materialized (and churned) rows step by step.
        walker = _fresh_system()
        trail = _random_walk(walker, steps=25, seed=seed)
        fresh = _fresh_system()
        for vec, canon in trail:
            fresh.restore(vec)
            assert fresh.canon() == canon

    @pytest.mark.parametrize("seed", [0, 1])
    def test_materialization_order_is_invisible(self, seed):
        # Restoring the same vectors in a different order changes which
        # rows get allocated/evicted when — never the canons.
        walker = _fresh_system()
        trail = _random_walk(walker, steps=25, seed=seed)
        shuffled = trail[:]
        random.Random(seed + 100).shuffle(shuffled)
        churned = _fresh_system()
        for vec, canon in shuffled:
            churned.restore(vec)
            assert churned.canon() == canon

    def test_churned_walker_returns_to_root_canon(self):
        # Evicted rows vs never-allocated rows: after a long walk the
        # walker restored to the root must equal a pristine system's root.
        walker = _fresh_system()
        trail = _random_walk(walker, steps=40, seed=7)
        root_vec, root_canon = trail[0]
        walker.restore(root_vec)
        assert walker.canon() == root_canon
        assert walker.canon() == _fresh_system().canon()

    def test_checker_loop_canons_match_deepcopy_oracle(self):
        # Inside the real checker loop: the snapshot engine's one reused
        # (churning) system and the reference explorer's per-state clones
        # must agree on the full reachable canon set.
        snap = CanonModelChecker(_make).run()
        deep = DeepcopyModelChecker(_make).run()
        assert snap.canons == deep.canons
        assert (snap.states, snap.transitions) == (deep.states, deep.transitions)
