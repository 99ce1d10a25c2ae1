"""Tests for adversarial initial forwarding states."""

import pytest

from repro.core.corruption import (
    fill_all_buffers,
    plant_invalid_message,
    plant_invalid_messages,
    scramble_queues,
)
from repro.core.invariants import InvariantChecker
from repro.errors import ConfigurationError

from tests.helpers import make_ssmfp, occupied_in_component


class TestPlantInvalidMessage:
    def test_plants_into_reception(self, line5):
        proto = make_ssmfp(line5)
        msg = plant_invalid_message(proto, 2, 1, "R", "g")
        assert proto.bufs.get_r(2, 1) is msg
        assert not msg.valid and msg.uid < 0

    def test_plants_into_emission(self, line5):
        proto = make_ssmfp(line5)
        plant_invalid_message(proto, 2, 1, "E", "g", last=0, color=1)
        assert proto.bufs.get_e(2, 1).color == 1

    def test_rejects_bad_kind(self, line5):
        proto = make_ssmfp(line5)
        with pytest.raises(ValueError, match="kind"):
            plant_invalid_message(proto, 2, 1, "X", "g")

    def test_rejects_non_neighbor_last(self, line5):
        proto = make_ssmfp(line5)
        with pytest.raises(ValueError, match="last"):
            plant_invalid_message(proto, 2, 0, "R", "g", last=4)

    def test_rejects_out_of_range_color(self, line5):
        proto = make_ssmfp(line5)
        with pytest.raises(ValueError, match="color"):
            plant_invalid_message(proto, 2, 0, "R", "g", color=10)

    def test_planted_state_is_well_formed(self, line5):
        proto = make_ssmfp(line5)
        plant_invalid_message(proto, 2, 1, "R", "g", last=2, color=2)
        InvariantChecker(proto).check()


class TestPlantInvalidMessages:
    def test_fraction_zero_plants_nothing(self, line5):
        proto = make_ssmfp(line5)
        assert plant_invalid_messages(proto, seed=1, fill_fraction=0.0) == 0

    def test_fraction_one_fills_everything(self, line5):
        proto = make_ssmfp(line5)
        planted = plant_invalid_messages(proto, seed=1, fill_fraction=1.0)
        assert planted == 2 * 5 * 5
        assert proto.bufs.total_occupied() == planted

    def test_deterministic(self, ring6):
        p1 = make_ssmfp(ring6)
        p2 = make_ssmfp(ring6)
        plant_invalid_messages(p1, seed=9, fill_fraction=0.5)
        plant_invalid_messages(p2, seed=9, fill_fraction=0.5)
        assert p1.dump() == p2.dump()

    def test_rejects_bad_fraction(self, line5):
        # The one fraction rule (``errors.check_fraction``): a configuration
        # error naming the parameter, not a bare ValueError.
        proto = make_ssmfp(line5)
        with pytest.raises(ConfigurationError, match=r"fill_fraction must be in \[0, 1\]"):
            plant_invalid_messages(proto, seed=1, fill_fraction=-0.1)
        with pytest.raises(ConfigurationError, match="fill_fraction must be a number"):
            plant_invalid_messages(proto, seed=1, fill_fraction="lots")

    def test_always_well_formed(self, ring6):
        proto = make_ssmfp(ring6)
        plant_invalid_messages(proto, seed=3, fill_fraction=0.8)
        InvariantChecker(proto).check()


class TestFillAllBuffers:
    def test_fills_2n_buffers(self, line5):
        proto = make_ssmfp(line5)
        assert fill_all_buffers(proto, d=3, seed=1) == 2 * 5
        assert occupied_in_component(proto.bufs, 3) == 10
        assert occupied_in_component(proto.bufs, 2) == 0

    def test_distinct_payloads(self, line5):
        proto = make_ssmfp(line5)
        fill_all_buffers(proto, d=3, seed=1)
        payloads = [m.payload for _, _, _, m in proto.bufs.iter_messages()]
        assert len(set(payloads)) == len(payloads)


class TestScrambleQueues:
    def test_queue_contents_within_domain(self, line5):
        proto = make_ssmfp(line5)
        scramble_queues(proto, seed=5)
        for d in line5.processors():
            for p in line5.processors():
                for q in proto.queues.peek(d, p).items():
                    assert q == p or q in line5.neighbors(p)

    def test_deterministic(self, line5):
        p1 = make_ssmfp(line5)
        p2 = make_ssmfp(line5)
        scramble_queues(p1, seed=5)
        scramble_queues(p2, seed=5)
        for d in line5.processors():
            for p in line5.processors():
                assert p1.queues.peek(d, p).items() == p2.queues.peek(d, p).items()
