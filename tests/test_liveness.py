"""Exhaustive fair-livelock detection tests.

Starvation needs *recurrent* competition, so these tests use a pressure
harness: designated sources whose outbox never drains (the request is
re-raised after every generation) and a fixed-uid factory so the state
space stays finite (the "same" competitor message cycles forever).  The
victim is an ordinary one-shot message that must eventually get through.

Expected results, exhaustively:

* the paper's FIFO ``choice`` admits **no** weakly-fair cycle in which the
  victim stays outstanding — starvation-freedom, model-checked;
* the ``"fixed"`` ablation policy admits one — the A2 starvation as a
  concrete counterexample cycle.
"""

import pytest

from repro.app.higher_layer import HigherLayer
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.network.topologies import line_network
from repro.routing.static import StaticRouting
from repro.statemodel.message import Message, MessageFactory
from repro.verify.liveness import LivenessChecker

from tests.helpers import make_ssmfp
from tests.reference_engines import DeepcopyLivenessChecker


class FixedUidFactory(MessageFactory):
    """Valid messages get a uid determined by their source — repeated
    generations of the pressure stream reuse one identity, keeping the
    reachable graph finite."""

    def generated(self, payload, source, dest, color, step):
        return Message(
            payload=payload, last=source, color=color, dest=dest,
            uid=1000 + source, valid=True, source=source, born_step=-1,
        )


class PressureHigherLayer(HigherLayer):
    """Sources in ``replenish`` never exhaust their outbox: generation
    lowers the request but keeps the message queued, so the next
    environment phase re-raises it — an infinite stream in finite state."""

    def __init__(self, n, replenish=()):
        super().__init__(n)
        self._replenish = frozenset(replenish)

    def consume_request(self, p):
        if p in self._replenish:
            item = self._outbox[p][0]
            self.request[p] = False
            return item
        return super().consume_request(p)


def make_starvation_instance(policy):
    """Line 0-1-2: source 0 streams to 2 forever (through 1); victim 1
    wants to send one message to 2 and competes with 0 for its own
    reception buffer bufR_1(2).

    For ``aged_fair`` the wait parameters are scaled down (slowdown 1,
    cap 4) so the wait-age dimension keeps the state space small; the
    policy is structurally identical at any parameters with
    ``cap // slowdown`` above the instance's maximal hop count.
    """

    def factory():
        net = line_network(3)
        hl = PressureHigherLayer(net.n, replenish={0})
        ledger = DeliveryLedger(strict=False)
        proto = SSMFP(
            net, StaticRouting(net), hl, ledger,
            choice_policy=policy,
            choice_wait_cap=3,  # > the instance's maximal hop count (2)
            choice_wait_slowdown=1,
        )
        proto.factory = FixedUidFactory()
        hl.submit(0, "stream", 2)
        hl.submit(1, "victim", 2)
        return proto

    return factory


class TestHarness:
    def test_pressure_source_never_drains(self):
        net = line_network(3)
        hl = PressureHigherLayer(net.n, replenish={0})
        hl.submit(0, "s", 2)
        hl.before_step(0)
        assert hl.request[0]
        hl.consume_request(0)
        assert not hl.request[0]
        hl.before_step(1)
        assert hl.request[0]  # re-raised: infinite stream

    def test_fixed_uid_factory_reuses_identity(self):
        f = FixedUidFactory()
        a = f.generated("x", 0, 3, 0, step=1)
        b = f.generated("x", 0, 3, 0, step=99)
        assert a.uid == b.uid == 1000
        assert a == b  # identical in every canonical field


class TestFairLivelocks:
    VICTIM_MARKER = -2  # pending-submission marker for processor 1

    def _check(self, policy):
        return LivenessChecker(
            make_starvation_instance(policy),
            max_states=60_000,
            max_selection_width=4000,
            ignore_pending={0},  # the deliberately infinite pressure source
        ).run()

    def test_fifo_choice_is_starvation_free(self):
        """The paper's FIFO queue, exhaustively: no weakly-fair cycle
        keeps the victim's submission (or any generated message)
        outstanding forever."""
        result = self._check("fifo")
        assert not result.truncated
        assert result.livelocks == [], result.livelocks

    def test_fixed_choice_has_a_fair_livelock(self):
        """Ablation A2 as a concrete counterexample cycle: under fixed
        priority the stream is always served first, and the victim's R1
        never fires along a 783-state weakly-fair SCC."""
        result = self._check("fixed")
        assert not result.truncated
        assert result.livelocks, "expected the A2 starvation cycle"
        assert any(
            self.VICTIM_MARKER in ll.starved_uids for ll in result.livelocks
        )

    def test_aged_choice_trades_generation_fairness_for_speed(self):
        """A finding about the X2 future-work variant: age priority speeds
        up in-flight messages (X2's measurement) but a *generation
        request* has the lowest age, so a persistent stream outranks it
        forever — the liveness checker finds the starvation cycle the
        statistical experiments missed."""
        result = self._check("aged")
        assert not result.truncated
        assert result.livelocks
        assert any(
            self.VICTIM_MARKER in ll.starved_uids for ll in result.livelocks
        )

    def test_aged_fair_choice_is_starvation_free(self):
        """The constructive fix: aging *requests* by waiting time restores
        starvation-freedom (exhaustively, at scaled-down wait parameters)
        while X2 shows it keeps the aged policy's speed."""
        result = self._check("aged_fair")
        assert not result.truncated
        assert result.livelocks == [], result.livelocks


class TestPinnedGraphs:
    """The reachable graphs of the four policies, bit for bit: the
    verifier's bookkeeping may get cheaper, the graph may not move."""

    @pytest.mark.parametrize(
        "policy,graph,livelocks",
        [
            ("fifo", (2252, 10420, 1470), []),
            ("fixed", (6426, 29861, 4862), [(783, (-2,), 3587)]),
            ("aged", (6426, 29861, 4862), [(783, (-2,), 3587)]),
            ("aged_fair", (14959, 69179, 9303), []),
        ],
    )
    def test_states_transitions_sccs_and_witnesses(self, policy, graph, livelocks):
        result = LivenessChecker(
            make_starvation_instance(policy),
            max_states=60_000,
            max_selection_width=4000,
            ignore_pending={0},
        ).run()
        assert not result.truncated
        assert (result.states, result.transitions, result.sccs) == graph
        assert [
            (ll.states, ll.starved_uids, ll.sample_cycle_length)
            for ll in result.livelocks
        ] == livelocks


class TestUnsafeInstance:
    """Liveness on an instance whose *safety* fails: executing a selection
    trips the strict ledger, which must end the search in a verdict, not a
    stack trace."""

    @staticmethod
    def _colors_off():
        net = line_network(3)
        proto = SSMFP(
            net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger(),
            enable_colors=False,
        )
        for _ in range(3):
            proto.hl.submit(0, "dup", 2)
        return proto

    def test_violation_truncates_with_a_note(self):
        result = LivenessChecker(
            self._colors_off, max_states=200_000, max_selection_width=4000,
        ).run()
        assert not result.ok
        assert result.truncated
        assert result.note == (
            "node 10: selection {0: 1}: valid uid 2 lost: "
            "R4 confirmed against a foreign copy"
        )


class TestLivenessOverflow:
    """LivenessChecker.run() must report a fan-out overflow as
    truncated+note — the same convention as ModelChecker — instead of
    raising."""

    @staticmethod
    def _fan_out_make():
        """The fan-out overflow instance of test_modelcheck."""
        net = line_network(5)
        proto = make_ssmfp(net)
        for p in range(4):
            proto.hl.submit(p, f"m{p}", 4)
        return proto

    @pytest.mark.parametrize(
        "checker", [LivenessChecker, DeepcopyLivenessChecker],
        ids=["snapshot", "deepcopy"],
    )
    def test_truncates_with_note(self, checker):
        result = checker(self._fan_out_make, max_selection_width=2).run()
        assert result.truncated
        assert not result.ok
        assert result.note is not None and "fan-out" in result.note

    def test_state_cap_notes(self):
        def make():
            net = line_network(3)
            proto = make_ssmfp(net)
            proto.hl.submit(0, "m", 2)
            return proto

        result = LivenessChecker(make, max_states=4).run()
        assert result.truncated
        assert result.note is not None and "state cap" in result.note
