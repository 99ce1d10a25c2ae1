"""Tests for the step engine: atomic snapshot steps, rounds,
neutralization, priority composition, termination and budgets."""

import pytest

from repro.errors import ScheduleError, SimulationLimitExceeded
from repro.statemodel.action import Action
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import Daemon, RoundRobinDaemon, SynchronousDaemon
from repro.statemodel.protocol import Protocol
from repro.statemodel.scheduler import Simulator

from tests.helpers import after_each_step


class CountUp(Protocol):
    """Every processor increments its own counter up to `limit`."""

    name = "COUNT"

    def __init__(self, n, limit):
        self.values = [0] * n
        self.limit = limit

    def enabled_actions(self, pid):
        if self.values[pid] >= self.limit:
            return []
        current = self.values[pid]

        def effect():
            self.values[pid] = current + 1

        return [Action(pid=pid, rule="INC", protocol=self.name, dest=None, apply=effect)]


class Swap(Protocol):
    """Two processors copy each other's value — detects snapshot semantics:
    under a synchronous daemon the values must swap, not converge."""

    name = "SWAP"

    def __init__(self):
        self.values = [1, 2]
        self.done = [False, False]

    def enabled_actions(self, pid):
        if self.done[pid]:
            return []
        other_value = self.values[1 - pid]

        def effect():
            self.values[pid] = other_value
            self.done[pid] = True

        return [Action(pid=pid, rule="CP", protocol=self.name, dest=None, apply=effect)]


class OneShotPair(Protocol):
    """Processors 0 and 1 are both enabled until either executes; the other
    is then neutralized.  Used to test round accounting with
    neutralization."""

    name = "PAIR"

    def __init__(self):
        self.fired = False

    def enabled_actions(self, pid):
        if self.fired or pid > 1:
            return []

        def effect():
            self.fired = True

        return [Action(pid=pid, rule="FIRE", protocol=self.name, dest=None, apply=effect)]


class PickFirstDaemon(Daemon):
    """Always selects the smallest enabled pid (unfair)."""

    def select(self, enabled, step):
        pid = min(enabled)
        return {pid: enabled[pid][0]}


class BadDaemon(Daemon):
    def __init__(self, mode):
        self.mode = mode

    def select(self, enabled, step):
        if self.mode == "empty":
            return {}
        if self.mode == "disabled":
            return {99: Action(pid=99, rule="X", protocol="T", dest=None, apply=lambda: None)}
        pid = min(enabled)
        if self.mode == "twin":
            a = enabled[pid][0]
            return {pid: Action(a.pid, a.rule, a.protocol, a.dest, a.apply, a.args)}
        return {pid: Action(pid=pid, rule="X", protocol="T", dest=None, apply=lambda: None)}


class TestStepBasics:
    def test_terminal_when_nothing_enabled(self):
        sim = Simulator(2, CountUp(2, limit=0), SynchronousDaemon())
        report = sim.step()
        assert report.terminal
        assert sim.terminal

    def test_synchronous_executes_everyone(self):
        proto = CountUp(3, limit=1)
        sim = Simulator(3, proto, SynchronousDaemon())
        sim.step()
        assert proto.values == [1, 1, 1]

    def test_rule_counts_accumulate(self):
        proto = CountUp(2, limit=3)
        sim = Simulator(2, proto, SynchronousDaemon())
        sim.run(max_steps=10)
        assert sim.rule_counts == {"INC": 6}

    def test_snapshot_semantics_swap(self):
        proto = Swap()
        sim = Simulator(2, proto, SynchronousDaemon())
        sim.step()
        assert proto.values == [2, 1]  # swapped, not smeared


class TestRounds:
    def test_synchronous_one_round_per_step(self):
        proto = CountUp(3, limit=5)
        sim = Simulator(3, proto, SynchronousDaemon())
        sim.run(max_steps=100)
        # Every step completes a round; the final round (ending in the
        # terminal configuration) is not counted.
        assert sim.round_count == 4

    def test_round_robin_round_is_n_steps(self):
        proto = CountUp(4, limit=2)
        sim = Simulator(4, proto, RoundRobinDaemon())
        sim.run(max_steps=100)
        assert sim.step_count == 8
        assert sim.round_count == 1  # second round ends at termination

    def test_neutralization_completes_round(self):
        # Both 0 and 1 enabled; daemon serves only 0; 1 is neutralized.
        proto = OneShotPair()
        sim = Simulator(2, proto, PickFirstDaemon())
        sim.step()
        report = sim.step()
        assert report.terminal
        # The round containing 0's execution + 1's neutralization completed
        # exactly at termination; no extra rounds counted.
        assert sim.round_count == 0

    def test_unfair_daemon_rounds_grow_slowly(self):
        # Serving one processor at a time, a round needs all 3 debtors.
        proto = CountUp(3, limit=10)
        sim = Simulator(3, proto, PickFirstDaemon())
        for _ in range(9):
            sim.step()
        # After 9 steps pid 0 is done (10 incs not yet)... pid0 served 9x.
        assert proto.values == [9, 0, 0]
        assert sim.round_count == 0  # pids 1,2 never executed/neutralized


class TestRun:
    def test_run_raises_on_budget(self):
        proto = CountUp(2, limit=10**9)
        sim = Simulator(2, proto, SynchronousDaemon())
        with pytest.raises(SimulationLimitExceeded) as exc:
            sim.run(max_steps=5)
        assert exc.value.steps == 5

    def test_run_terminal(self):
        proto = CountUp(2, limit=2)
        sim = Simulator(2, proto, SynchronousDaemon())
        result = sim.run(max_steps=100)
        assert result.terminal


class TestDaemonValidation:
    def test_empty_selection_rejected(self):
        sim = Simulator(2, CountUp(2, limit=1), BadDaemon("empty"))
        with pytest.raises(ScheduleError, match="no processor"):
            sim.step()

    def test_disabled_processor_rejected(self):
        sim = Simulator(2, CountUp(2, limit=1), BadDaemon("disabled"))
        with pytest.raises(ScheduleError, match="disabled"):
            sim.step()

    def test_foreign_action_rejected(self):
        sim = Simulator(2, CountUp(2, limit=1), BadDaemon("foreign"))
        with pytest.raises(ScheduleError, match="not enabled"):
            sim.step()

    def test_equal_twin_rejected(self):
        # Validation is by identity: a twin equal field by field to the
        # served action was still not served.
        proto = CountUp(2, limit=1)
        sim = Simulator(2, proto, BadDaemon("twin"))
        served = proto.enabled_actions(0)[0]
        twin = Action(served.pid, served.rule, served.protocol, served.dest,
                      served.apply, served.args)
        assert twin == served
        with pytest.raises(ScheduleError, match="not enabled"):
            sim.step()


class TestPriorityComposition:
    def test_high_priority_masks_low(self):
        high = CountUp(2, limit=1)
        high.name = "HIGH"
        low = CountUp(2, limit=5)
        low.name = "LOW"
        stack = PriorityStack([high, low])
        sim = Simulator(2, stack, SynchronousDaemon())
        sim.step()
        assert high.values == [1, 1]
        assert low.values == [0, 0]  # masked while HIGH was enabled
        sim.step()
        assert low.values == [1, 1]  # HIGH silent, LOW proceeds

    def test_empty_stack_rejected(self):
        with pytest.raises(ValueError):
            PriorityStack([])

    def test_per_processor_priority(self):
        # HIGH enabled only at pid 0; pid 1 runs LOW immediately.
        class OnlyZero(CountUp):
            def enabled_actions(self, pid):
                return super().enabled_actions(pid) if pid == 0 else []

        high = OnlyZero(2, limit=1)
        low = CountUp(2, limit=1)
        sim = Simulator(2, PriorityStack([high, low]), SynchronousDaemon())
        sim.step()
        assert high.values[0] == 1
        assert low.values == [0, 1]


class TestStrictHooks:
    """The per-step checks of the safety tests (``tests.helpers``
    ``after_each_step``) hold only while ``run`` steps through the
    instance's ``step``."""

    def test_hook_called_after_each_step(self):
        calls = []
        proto = CountUp(1, limit=3)
        sim = Simulator(1, proto, SynchronousDaemon())
        after_each_step(sim, lambda: calls.append(sim.step_count))
        sim.run(max_steps=10)
        assert calls == [1, 2, 3]

    def test_hook_exception_propagates(self):
        def boom():
            raise RuntimeError("invariant broken")

        sim = after_each_step(
            Simulator(1, CountUp(1, limit=1), SynchronousDaemon()), boom
        )
        with pytest.raises(RuntimeError, match="invariant"):
            sim.step()


class GrowsDownward(Protocol):
    """pid 2 always enabled; executing it once also enables pid 0.  Tracks
    its own dirt so the simulator's persistent enabled map is exercised:
    the pid-0 insertion must land *before* pid 2 in iteration order."""

    name = "grow"

    def __init__(self):
        self._scanned = False
        self._pending = set()
        self.low_enabled = False

    def _noop_action(self, pid, rule):
        return Action(pid=pid, rule=rule, protocol=self.name, dest=None, apply=lambda: None)

    def enabled_actions(self, pid):
        acts = []
        if pid == 0 and self.low_enabled:
            acts.append(self._noop_action(0, "lo"))
        if pid == 2:
            def eff():
                if not self.low_enabled:
                    self.low_enabled = True
                    self._pending.add(0)
                self._pending.add(2)
            acts.append(Action(pid=2, rule="hi", protocol=self.name, dest=None, apply=eff))
        return acts

    def dirty_after(self, selection):
        if not self._scanned:
            self._scanned = True
            return None
        pending, self._pending = self._pending, set()
        return pending


class TestPersistentEnabledMap:
    def _sim(self):
        return Simulator(3, GrowsDownward(), RoundRobinDaemon())

    def test_insertion_keeps_ascending_pid_order(self):
        sim = self._sim()
        first = sim.enabled_map()
        assert list(first) == [2]
        sim.step()  # round-robin serves pid 2 -> enables pid 0
        second = sim.enabled_map()
        assert list(second) == [0, 2]

    def test_map_object_reused_when_nothing_dirty(self):
        sim = self._sim()
        m1 = sim.enabled_map()
        evals = sim.guard_evals
        m2 = sim.enabled_map()
        # No dirt between evaluations: the same dict comes back and no
        # guard was re-evaluated.
        assert m2 is m1
        assert sim.guard_evals == evals

    def test_guard_evals_counts_fallback_units_for_untracked_protocols(self):
        # A protocol without tracks_components is charged one component
        # evaluation per enabled_actions call — the initial full scan of
        # n=3 processors costs exactly 3.
        sim = self._sim()
        sim.enabled_map()
        assert sim.guard_evals == 3
