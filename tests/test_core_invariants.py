"""Tests for the invariant checker (Lemmas 4 & 5 as runtime checks)."""

import pytest

from repro.core.invariants import InvariantChecker
from repro.errors import InvariantViolation
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import SynchronousDaemon
from repro.statemodel.message import Message
from repro.statemodel.scheduler import Simulator

from tests.helpers import after_each_step, make_ssmfp


# Each check alone, over its own walk of the buffers: ``check()`` fuses all
# four into one walk and must report exactly what each reports alone.
def well_formed(checker):
    checker._walk(well_formed=True)


def no_loss(checker):
    checker._no_loss(checker._walk(well_formed=False))


def no_duplication(checker):
    checker._no_duplication(checker._walk(well_formed=False))


def copy_geometry(checker):
    checker._copy_geometry(checker._walk(well_formed=False))


def gen(proto, source, dest, payload="m", color=0):
    msg = proto.factory.generated(payload, source, dest, color, 0)
    proto.ledger.record_generated(msg)
    return msg


class TestWellFormedness:
    def test_clean_state_passes(self, line5):
        proto = make_ssmfp(line5)
        InvariantChecker(proto).check()

    def test_out_of_range_color_caught(self, line5):
        proto = make_ssmfp(line5)
        bad = Message(payload="x", last=1, color=99, dest=2, uid=-5, valid=False)
        proto.bufs.set_r(2, 1, bad)
        with pytest.raises(InvariantViolation, match="color"):
            well_formed(InvariantChecker(proto))

    def test_non_neighbor_last_caught(self, line5):
        proto = make_ssmfp(line5)
        bad = Message(payload="x", last=4, color=0, dest=2, uid=-5, valid=False)
        proto.bufs.set_r(2, 0, bad)  # 4 is not adjacent to 0 on the line
        with pytest.raises(InvariantViolation, match="last"):
            well_formed(InvariantChecker(proto))

    def test_mismatched_dest_tag_caught(self, line5):
        proto = make_ssmfp(line5)
        bad = Message(payload="x", last=1, color=0, dest=3, uid=-5, valid=False)
        proto.bufs.set_r(2, 1, bad)  # stored in component 2, tagged 3
        with pytest.raises(InvariantViolation, match="dest"):
            well_formed(InvariantChecker(proto))


class TestLossAndDuplication:
    def test_outstanding_message_with_copy_passes(self, line5):
        proto = make_ssmfp(line5)
        proto.bufs.set_r(3, 0, gen(proto, 0, 3))
        InvariantChecker(proto).check()

    def test_lost_message_caught(self, line5):
        proto = make_ssmfp(line5)
        gen(proto, 0, 3)  # generated, never stored anywhere
        with pytest.raises(InvariantViolation, match="lost"):
            no_loss(InvariantChecker(proto))

    def test_residual_copy_after_delivery_caught(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3)
        proto.ledger.record_delivery(3, msg, step=5)
        proto.bufs.set_r(3, 1, msg.forwarded_copy(0))
        with pytest.raises(InvariantViolation, match="delivered but copies"):
            no_duplication(InvariantChecker(proto))

    def test_foreign_component_copy_caught(self, line5):
        proto = make_ssmfp(line5)
        msg = gen(proto, 0, 3)
        # Force the copy into component 2 (violates geometry; dest tag is
        # checked separately so craft a tag-matching message).
        wrong = Message(
            payload=msg.payload, last=0, color=0, dest=2,
            uid=msg.uid, valid=True, source=0,
        )
        proto.bufs.set_r(2, 0, wrong)
        with pytest.raises(InvariantViolation, match="foreign"):
            copy_geometry(InvariantChecker(proto))

    def test_unrecorded_valid_uid_caught(self, line5):
        proto = make_ssmfp(line5)
        ghost = Message(payload="x", last=0, color=0, dest=2, uid=77, valid=True, source=0)
        proto.bufs.set_r(2, 0, ghost)
        with pytest.raises(InvariantViolation, match="never recorded"):
            copy_geometry(InvariantChecker(proto))


def _bad_color(proto):
    proto.bufs.set_r(2, 1, Message(payload="x", last=1, color=99, dest=2, uid=-5, valid=False))
    return well_formed, "bufR_1(2) holds color 99 outside 0..2"


def _bad_last(proto):
    proto.bufs.set_e(2, 0, Message(payload="x", last=4, color=0, dest=2, uid=-5, valid=False))
    return well_formed, "bufE_0(2) holds last=4, not in N_0 ∪ {0}"


def _bad_dest(proto):
    proto.bufs.set_r(2, 1, Message(payload="x", last=1, color=0, dest=3, uid=-5, valid=False))
    return well_formed, "bufR_1(2) holds a message tagged dest=3"


def _lost(proto):
    gen(proto, 0, 3)
    gen(proto, 1, 4)
    return (no_loss,
            "valid messages lost (no stored copy, never delivered): uids [1, 2]")


def _duplicated(proto):
    msg = gen(proto, 0, 3)
    proto.ledger.record_delivery(3, msg, step=5)
    proto.bufs.set_r(3, 1, msg.forwarded_copy(0))
    proto.bufs.set_e(3, 1, msg.forwarded_copy(0))
    return (no_duplication,
            "valid uid 1 was delivered but copies remain at [(3, 1, 'R'), (3, 1, 'E')]")


def _foreign(proto):
    msg = gen(proto, 0, 3)
    proto.bufs.set_r(3, 0, msg)
    proto.bufs.set_r(2, 0, Message(payload=msg.payload, last=0, color=0, dest=2,
                                   uid=msg.uid, valid=True, source=0))
    return (copy_geometry,
            "valid uid 1 (dest 3) has copies in foreign components: [(2, 0, 'R')]")


def _unrecorded(proto):
    proto.bufs.set_r(2, 0, Message(payload="x", last=0, color=0, dest=2, uid=77,
                                   valid=True, source=0))
    return (copy_geometry,
            "stored valid uid 77 was never recorded as generated")


class TestCheckReachesEveryKind:
    """``check()`` walks the buffers once for all four checks: each kind of
    violation still surfaces through it, word for word as its own check
    reports it."""

    @pytest.mark.parametrize(
        "plant",
        [_bad_color, _bad_last, _bad_dest, _lost, _duplicated, _foreign, _unrecorded],
        ids=["color", "last", "dest", "loss", "duplication", "foreign", "unrecorded"],
    )
    def test_check_raises_what_the_single_check_raises(self, line5, plant):
        proto = make_ssmfp(line5)
        single, text = plant(proto)
        with pytest.raises(InvariantViolation) as alone:
            single(InvariantChecker(proto))
        with pytest.raises(InvariantViolation) as together:
            InvariantChecker(proto).check()
        assert str(alone.value) == str(together.value) == text

    def test_checks_run_in_order(self, line5):
        # All four kinds at once: check() reports them in the listed order,
        # each one once the previous has been repaired.
        proto = make_ssmfp(line5)
        lost = gen(proto, 0, 3)
        done = gen(proto, 1, 3)
        proto.ledger.record_delivery(3, done, step=5)
        proto.bufs.set_r(3, 2, done.forwarded_copy(1))
        proto.bufs.set_r(2, 0, Message(payload="x", last=0, color=0, dest=2, uid=77,
                                       valid=True, source=0))
        proto.bufs.set_r(2, 1, Message(payload="x", last=1, color=0, dest=3, uid=-5,
                                       valid=False))
        repairs = [
            ("tagged dest=3", lambda: proto.bufs.set_r(2, 1, None)),
            ("lost", lambda: proto.bufs.set_r(3, 0, lost)),
            ("delivered but copies remain", lambda: proto.bufs.set_r(3, 2, None)),
            ("never recorded", lambda: proto.bufs.set_r(2, 0, None)),
        ]
        for words, repair in repairs:
            with pytest.raises(InvariantViolation, match=words):
                InvariantChecker(proto).check()
            repair()
        InvariantChecker(proto).check()


class TestCheckedSteps:
    def test_a_checked_step_raises_on_a_lost_message(self, line5):
        proto = make_ssmfp(line5)
        gen(proto, 0, 3)  # lost message
        proto.hl.submit(1, "m", 4)  # something to execute
        sim = after_each_step(
            Simulator(line5.n, PriorityStack([proto]), SynchronousDaemon()),
            InvariantChecker(proto).check,
        )
        with pytest.raises(InvariantViolation):
            sim.step()
