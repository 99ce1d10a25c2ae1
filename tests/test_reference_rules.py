"""Differential oracle: the fused evaluators against the rule sets they
replaced (``tests/reference_rules.py``, the former ``core/rules.py`` /
``core/rules2.py`` verbatim).

The equivalence suite's scenarios — randomized and forced-adversarial
(corrupted routing, planted garbage, scrambled queues) starts, both
protocols, every ablation knob, every choice policy — run on the product
engine.  At every step, in the configuration the engine evaluates guards in
(after the environment phase), for every processor and every component any
processor could act in, the evaluator must answer the reference's labels in
the reference's order with the reference's ``info``, and executing the
reference closure and the action record from the same restored snapshot must
leave the same state vector — buffers, queues, higher layer, ledger, uid
counters — or raise the same error.
"""

import pytest

from repro.errors import ReproError
from repro.sim.runner import delivered_and_drained
from repro.statemodel.scheduler import Simulator

from tests.helpers import materialized_queue_destinations

from tests.reference_engines import use_engine
from tests.reference_rules import reference_actions
from tests.test_engine_equivalence import ABLATION_KNOBS, POLICIES, _make_scenario

#: Steps with the execute-both-ways check (each costs two restores per
#: enabled action); labels and ``info`` are compared at every step.
EXECUTED_STEPS = 120


def _outcome(proto, home, action):
    """Execute ``action`` at the configuration ``home``; the state vector
    it leads to (or the error it raises), with ``home`` reinstated."""
    try:
        action.execute()
        result = proto.snapshot()
    except ReproError as exc:
        result = (type(exc), str(exc))
    proto.restore(home)
    return result


class DifferentialSimulator(Simulator):
    """The product engine; every guard evaluation is also put to the
    reference rule sets."""

    compared = 0

    def enabled_map(self):
        enabled = super().enabled_map()
        (proto,) = (p for p in self._stack.protocols if hasattr(p, "evaluate"))
        dests = sorted(
            proto.active_destinations() | materialized_queue_destinations(proto.queues)
        )
        home = None
        for d in dests:
            for p in proto.net.processors():
                reference = reference_actions(proto, p, d)
                records = proto._eval_component(p, d)
                where = f"step {self.step_count}, (p, d) = ({p}, {d})"
                assert [a.rule for a in records] == [a.rule for a in reference], where
                assert all(a.rule in proto.rule_order for a in records), where
                for record, ref in zip(records, reference):
                    assert (record.pid, record.protocol, record.dest) == (
                        p, ref.protocol, d), where
                    assert record.info == ref.info, where
                    if self.step_count < EXECUTED_STEPS:
                        if home is None:
                            home = proto.snapshot()
                            proto.restore(home)
                        assert _outcome(proto, home, record) == _outcome(
                            proto, home, ref), f"{where}, rule {ref.rule}"
                    type(self).compared += 1
        return enabled


def _drive(seed, policy="fifo", *, max_steps=600, **scenario):
    before = DifferentialSimulator.compared
    sim = use_engine(
        _make_scenario(seed, "distributed", policy, full_scan=False, **scenario),
        DifferentialSimulator,
    )
    sim.run(max_steps, halt=delivered_and_drained, raise_on_limit=False)
    assert DifferentialSimulator.compared > before  # the oracle saw actions


class TestFusedEvaluatorsMatchTheReplacedRuleSets:
    @pytest.mark.parametrize("protocol", ("ssmfp", "ssmfp2"))
    @pytest.mark.parametrize("seed", range(4))
    def test_randomized_starts(self, protocol, seed):
        _drive(seed * 1_000 + 41, protocol=protocol)

    @pytest.mark.parametrize("knobs", ABLATION_KNOBS)
    @pytest.mark.parametrize("adversarial", (False, True))
    def test_ablation_knobs(self, knobs, adversarial):
        _drive(991 + 57, options=knobs, adversarial=adversarial)

    @pytest.mark.parametrize("protocol", ("ssmfp", "ssmfp2"))
    @pytest.mark.parametrize("policy", POLICIES)
    def test_choice_policies(self, protocol, policy):
        _drive(777 + 13, policy, protocol=protocol, adversarial=True, max_steps=400)
