"""Tests for the daemons."""

import pytest

from repro.errors import ConfigurationError, ScheduleError
from repro.statemodel.action import Action
from repro.statemodel.daemon import (
    AdversarialScriptDaemon,
    CentralRandomDaemon,
    DistributedRandomDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
    daemon_by_name,
)

from tests.helpers import LocallyCentralRandomDaemon


def act(pid, rule="R", dest=None):
    return Action(pid=pid, rule=rule, protocol="T", dest=dest, apply=lambda: None)


def enabled_map(*pids):
    return {pid: [act(pid)] for pid in pids}


class TestSynchronous:
    def test_selects_everyone(self):
        sel = SynchronousDaemon().select(enabled_map(0, 2, 5), step=0)
        assert set(sel) == {0, 2, 5}

    def test_picks_first_action(self):
        a1, a2 = act(0, "A"), act(0, "B")
        sel = SynchronousDaemon().select({0: [a1, a2]}, step=0)
        assert sel[0] is a1


class TestCentralRandom:
    def test_selects_exactly_one(self):
        d = CentralRandomDaemon(seed=1)
        for step in range(20):
            sel = d.select(enabled_map(0, 1, 2, 3), step)
            assert len(sel) == 1

    def test_deterministic_for_seed(self):
        picks1 = [list(CentralRandomDaemon(seed=5).select(enabled_map(0, 1, 2), s))[0] for s in range(5)]
        picks2 = [list(CentralRandomDaemon(seed=5).select(enabled_map(0, 1, 2), s))[0] for s in range(5)]
        # each call constructs a fresh daemon, so sequences coincide per call
        assert picks1 == picks2

    def test_reset_replays(self):
        d = CentralRandomDaemon(seed=3)
        run1 = [list(d.select(enabled_map(0, 1, 2, 3), s))[0] for s in range(10)]
        d.reset()
        run2 = [list(d.select(enabled_map(0, 1, 2, 3), s))[0] for s in range(10)]
        assert run1 == run2

    def test_weak_fairness_statistically(self):
        d = CentralRandomDaemon(seed=7)
        seen = set()
        for s in range(200):
            seen.update(d.select(enabled_map(0, 1, 2, 3), s))
        assert seen == {0, 1, 2, 3}


class TestDistributedRandom:
    def test_never_empty(self):
        d = DistributedRandomDaemon(seed=2, p_select=0.01)
        for s in range(50):
            assert d.select(enabled_map(0, 1), s)

    def test_p_one_selects_all(self):
        d = DistributedRandomDaemon(seed=2, p_select=1.0)
        assert set(d.select(enabled_map(0, 1, 2), 0)) == {0, 1, 2}

    def test_invalid_probability_rejected(self):
        with pytest.raises(ValueError):
            DistributedRandomDaemon(seed=0, p_select=0.0)

    def test_reset_replays(self):
        d = DistributedRandomDaemon(seed=9)
        runs1 = [set(d.select(enabled_map(0, 1, 2, 3), s)) for s in range(10)]
        d.reset()
        runs2 = [set(d.select(enabled_map(0, 1, 2, 3), s)) for s in range(10)]
        assert runs1 == runs2


class TestLocallyCentral:
    def test_never_selects_neighbors_together(self):
        # Path 0-1-2-3: adjacent pids must not co-fire.
        neighbors = [(1,), (0, 2), (1, 3), (2,)]
        d = LocallyCentralRandomDaemon(seed=4, neighbors=neighbors)
        for s in range(100):
            sel = set(d.select(enabled_map(0, 1, 2, 3), s))
            for p in sel:
                assert not sel.intersection(neighbors[p])

    def test_selection_nonempty(self):
        d = LocallyCentralRandomDaemon(seed=4, neighbors=[(1,), (0,)])
        assert d.select(enabled_map(0, 1), 0)


class TestRoundRobin:
    def test_cycles_through_ids(self):
        d = RoundRobinDaemon()
        order = [list(d.select(enabled_map(0, 1, 2), s))[0] for s in range(6)]
        assert order == [0, 1, 2, 0, 1, 2]

    def test_skips_disabled(self):
        d = RoundRobinDaemon()
        assert list(d.select(enabled_map(1, 3), 0)) == [1]
        assert list(d.select(enabled_map(1, 3), 1)) == [3]
        assert list(d.select(enabled_map(1, 3), 2)) == [1]

    def test_weakly_fair_bound(self):
        # A continuously enabled processor is served within n selections.
        d = RoundRobinDaemon()
        for target in (0, 1, 2, 3):
            d.reset()
            served = []
            for s in range(4):
                served += list(d.select(enabled_map(0, 1, 2, 3), s))
            assert target in served


class TestScriptDaemon:
    def test_replays_script(self):
        d = AdversarialScriptDaemon([[(0, "A")], [(1, "B")]])
        m = {0: [act(0, "A")], 1: [act(1, "B")]}
        assert list(d.select(m, 0)) == [0]
        assert list(d.select(m, 1)) == [1]
        assert list(d.select(m, 2)) == [0]  # script done: round-robin fallback

    def test_dest_filter(self):
        a1, a2 = act(0, "R2", dest=1), act(0, "R2", dest=2)
        d = AdversarialScriptDaemon([[(0, "R2", 2)]])
        sel = d.select({0: [a1, a2]}, 0)
        assert sel[0] is a2

    def test_missing_processor_raises(self):
        d = AdversarialScriptDaemon([[(5, "A")]])
        with pytest.raises(ScheduleError, match="not enabled"):
            d.select(enabled_map(0), 0)

    def test_missing_rule_raises(self):
        d = AdversarialScriptDaemon([[(0, "NOPE")]])
        with pytest.raises(ScheduleError, match="NOPE"):
            d.select(enabled_map(0), 0)

    def test_falls_back_after_script(self):
        d = AdversarialScriptDaemon([[(0, "R")]])
        d.select(enabled_map(0), 0)
        sel = d.select(enabled_map(0, 1), 1)  # fallback round-robin
        assert len(sel) == 1

    def test_multi_processor_step(self):
        d = AdversarialScriptDaemon([[(0, "R"), (1, "R")]])
        sel = d.select(enabled_map(0, 1, 2), 0)
        assert set(sel) == {0, 1}

    def test_reset_replays_script(self):
        d = AdversarialScriptDaemon([[(0, "R")]])
        d.select(enabled_map(0), 0)
        d.reset()
        assert list(d.select(enabled_map(0), 0)) == [0]
        d.reset()
        with pytest.raises(ScheduleError, match="not enabled"):
            d.select(enabled_map(1), 0)  # replaying the script, not falling back


class TestDaemonByName:
    def test_vocabulary(self):
        assert isinstance(daemon_by_name("synchronous", 3), SynchronousDaemon)
        assert isinstance(daemon_by_name("round_robin", 3), RoundRobinDaemon)
        central = daemon_by_name("central", 3)
        assert isinstance(central, CentralRandomDaemon) and central._seed == 3
        dist = daemon_by_name("distributed", 4, p_select=0.25)
        assert isinstance(dist, DistributedRandomDaemon)
        assert (dist._seed, dist._p) == (4, 0.25)

    def test_unknown_name_and_stray_kwargs(self):
        with pytest.raises(ConfigurationError, match="unknown daemon.*central"):
            daemon_by_name("round-robin", 0)
        with pytest.raises(TypeError):
            daemon_by_name("synchronous", 0, p_select=0.5)
