"""An enabled action is a record, not a closure: what that buys, and the
measuring seam it must not break.

* ``info`` is built on demand — a simulator run and the verifier's
  partial-order reduction build none (``dest`` is a field of its own), and
  a run retains nothing per executed move;
* two evaluations of an unchanged component are equal and not identical;
* every move of the simulator and of the exhaustive verifier goes through
  the class-level ``Action.execute`` and the instance-dispatched
  ``ForwardingProtocol.enabled_actions``, which is where ``bench/`` hangs
  its spans (``bench/statemodel.py`` replaces exactly these attributes).
"""

import tracemalloc

import pytest

from repro.app.workload import uniform_workload
from repro.core.family import ForwardingProtocol
from repro.network.topologies import grid_network, line_network, ring_network
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.action import Action
from repro.statemodel.daemon import DistributedRandomDaemon
from repro.verify.modelcheck import ModelChecker, _System

from tests.helpers import make_ssmfp, make_ssmfp2


def _dense(protocol="ssmfp", **kwargs):
    """``sim-dense`` in small: a grid with several messages a step."""
    net = grid_network(4, 4)
    return build_simulation(
        net,
        workload=uniform_workload(net.n, 60, seed=7, spread_steps=6),
        daemon=DistributedRandomDaemon(seed=7),
        seed=7,
        protocol=protocol,
        **kwargs,
    )


def _line3():
    proto = make_ssmfp(line_network(3))
    proto.hl.submit(0, "a", 2)
    proto.hl.submit(2, "b", 0)
    return proto


@pytest.fixture
def info_builds(monkeypatch):
    """Counts every ``Action.info`` dict built while the test runs."""
    built = []
    describe = Action.info.fget

    def counting(action):
        built.append(action.rule)
        return describe(action)

    monkeypatch.setattr(Action, "info", property(counting))
    return built


class TestInfoIsBuiltOnDemand:
    def test_an_untraced_run_builds_none(self, info_builds):
        sim = _dense()
        result = sim.run(10_000, halt=delivered_and_drained)
        assert sum(result.rule_counts.values()) > 500
        assert info_builds == []

    def test_a_run_retains_little_per_executed_move(self):
        # A simulator keeps one int per completed round and nothing per
        # executed move: what the run leaves allocated, divided by its moves.
        net = grid_network(4, 4)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 240, seed=7),
            daemon=DistributedRandomDaemon(seed=7),
            seed=7,
        )
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = sim.run(100_000, halt=delivered_and_drained)
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        moves = sum(result.rule_counts.values())
        assert moves > 2_000
        assert retained / moves <= 150, f"{retained / moves:.0f} bytes per move"

    def test_partial_order_reduction_builds_none(self, info_builds):
        result = ModelChecker(_line3, reduction="por").run()
        assert result.ok and result.reduction_note == "por on"
        assert result.states > 50
        assert info_builds == []


class TestActionsCompareByValue:
    @pytest.mark.parametrize("make", (make_ssmfp, make_ssmfp2))
    def test_re_evaluating_a_clean_component_gives_equal_actions(self, make):
        proto = make(ring_network(5))
        for src, dest in ((0, 2), (3, 1), (4, 2)):
            proto.hl.submit(src, f"m{src}", dest)
        seen = 0
        for step in range(40):
            proto.before_step(step)
            for d in sorted(proto.active_destinations()):
                for p in proto.net.processors():
                    first = proto._eval_component(p, d)
                    again = proto._eval_component(p, d)
                    assert first == again
                    assert all(a is not b for a, b in zip(first, again))
                    seen += len(first)
            # One synchronous step: every enabled processor's first action.
            enabled = [proto.enabled_actions(p) for p in proto.net.processors()]
            for actions in enabled:
                if actions:
                    actions[0].execute()
        assert seen > 20 and len(proto.hl.delivered) == 3

    def test_different_bound_values_are_unequal(self):
        proto = make_ssmfp(line_network(3))
        proto.hl.submit(0, "a", 2)
        proto.before_step(0)
        (first,) = proto._eval_component(0, 2)
        proto.hl.submit(1, "a", 2)
        proto.before_step(1)
        (other,) = proto._eval_component(1, 2)
        assert (first.rule, other.rule) == ("R1", "R1") and first != other


@pytest.fixture
def executed(monkeypatch):
    """Replaces ``Action.execute`` by a recording wrapper, the way
    ``bench/statemodel.py`` hangs its span on it."""
    calls = []
    execute = Action.execute

    def traced_execute(action):
        calls.append(action)
        execute(action)

    monkeypatch.setattr(Action, "execute", traced_execute)
    return calls


class TestTheMeasuringSeam:
    def test_every_simulator_move_goes_through_action_execute(self, executed):
        sim = _dense(routing_corruption={"kind": "random", "fraction": 0.5, "seed": 3})
        result = sim.run(10_000, halt=delivered_and_drained)
        assert len(executed) == sum(result.rule_counts.values())
        routing_moves = sum(
            n for rule, n in result.rule_counts.items() if rule.startswith("RT")
        )
        assert 0 < routing_moves < len(executed)
        assert sum(a.protocol == "A" for a in executed) == routing_moves
        assert all((a.protocol == "A") == a.rule.startswith("RT") for a in executed)

    def test_every_verifier_move_goes_through_action_execute(self, executed, monkeypatch):
        selected = []
        successors = _System.successors

        def counting(system, vec, enabled, selections):
            def tally():
                for selection in selections:
                    selected.append(len(selection))
                    yield selection
            return successors(system, vec, enabled, tally())

        monkeypatch.setattr(_System, "successors", counting)
        result = ModelChecker(_line3).run()
        assert result.ok and len(selected) == result.transitions > 100
        assert len(executed) == sum(selected)

    def test_enabled_actions_is_dispatched_through_the_class(self, monkeypatch):
        sim = _dense(protocol="ssmfp2")  # built before the patch, like a bench child
        polled = []
        enabled_actions = ForwardingProtocol.enabled_actions

        def traced(proto, pid):
            polled.append(pid)
            return enabled_actions(proto, pid)

        monkeypatch.setattr(ForwardingProtocol, "enabled_actions", traced)
        sim.run(10_000, halt=delivered_and_drained)
        assert len(polled) >= sim.sim.step_count
