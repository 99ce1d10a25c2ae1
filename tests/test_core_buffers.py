"""Tests for ForwardingBuffers."""

from repro.core.buffers import ForwardingBuffers
from repro.statemodel.message import MessageFactory

from tests.helpers import materialized_buffer_destinations, occupied_in_component


def make_msg(f=None, payload="m", dest=1):
    f = f or MessageFactory()
    return f.generated(payload, 0, dest, 0, 0)


class TestOccupancy:
    def test_starts_empty(self):
        bufs = ForwardingBuffers(3)
        assert bufs.total_occupied() == 0
        assert occupied_in_component(bufs, 0) == 0

    def test_set_r_counts(self):
        bufs = ForwardingBuffers(3)
        bufs.set_r(1, 0, make_msg())
        assert occupied_in_component(bufs, 1) == 1
        assert occupied_in_component(bufs, 0) == 0
        bufs.set_r(1, 0, None)
        assert bufs.total_occupied() == 0

    def test_overwrite_does_not_double_count(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(3)
        bufs.set_e(1, 2, make_msg(f))
        bufs.set_e(1, 2, make_msg(f))
        assert occupied_in_component(bufs, 1) == 1

    def test_move_r_to_e_preserves_count(self):
        bufs = ForwardingBuffers(3)
        msg = make_msg()
        bufs.set_r(1, 0, msg)
        bufs.move_r_to_e(1, 0, msg.recolored(0, 1))
        assert occupied_in_component(bufs, 1) == 1
        assert bufs.get_r(1, 0) is None
        assert bufs.get_e(1, 0) is not None


class TestTotalOccupiedCycles:
    """Regression: ``total_occupied`` must track occupy / vacate /
    re-occupy cycles exactly, summed over the sparse occupancy index —
    never going negative, never leaking a count for a vacated cell, and
    agreeing with a from-scratch recount at every point."""

    def _recount(self, bufs):
        return sum(1 for _ in bufs.iter_messages())

    def test_occupy_vacate_reoccupy_cycle(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(4)
        bufs.set_r(2, 1, make_msg(f, dest=2))
        bufs.set_e(2, 3, make_msg(f, dest=2))
        assert bufs.total_occupied() == 2 == self._recount(bufs)
        bufs.set_r(2, 1, None)
        assert bufs.total_occupied() == 1 == self._recount(bufs)
        bufs.set_e(2, 3, None)
        assert bufs.total_occupied() == 0 == self._recount(bufs)
        # Re-occupy the same cells after full vacation.
        bufs.set_r(2, 1, make_msg(f, dest=2))
        assert bufs.total_occupied() == 1 == self._recount(bufs)

    def test_clearing_empty_cell_is_a_noop(self):
        bufs = ForwardingBuffers(3)
        bufs.set_r(1, 0, None)
        bufs.set_e(1, 2, None)
        assert bufs.total_occupied() == 0
        assert bufs.occupied_components() == set()

    def test_interleaved_components_sum_correctly(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(6)
        for d in (1, 3, 5):
            bufs.set_r(d, 0, make_msg(f, dest=d))
        assert bufs.total_occupied() == 3 == self._recount(bufs)
        bufs.set_r(3, 0, None)
        assert bufs.total_occupied() == 2 == self._recount(bufs)
        bufs.set_e(3, 2, make_msg(f, dest=3))
        bufs.set_r(5, 0, None)
        assert bufs.total_occupied() == 2 == self._recount(bufs)
        # The sum covers exactly the occupied components, no stale entries.
        assert bufs.occupied_components() == {1, 3}

    def test_move_cycle_then_vacate(self):
        bufs = ForwardingBuffers(3)
        msg = make_msg()
        for _ in range(3):  # repeated occupy -> move -> vacate cycles
            bufs.set_r(1, 0, msg)
            bufs.move_r_to_e(1, 0, msg.recolored(0, 1))
            assert bufs.total_occupied() == 1 == self._recount(bufs)
            bufs.set_e(1, 0, None)
            assert bufs.total_occupied() == 0 == self._recount(bufs)
        assert materialized_buffer_destinations(bufs) == set()


class TestIteration:
    def test_iter_messages_yields_all(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(3)
        bufs.set_r(0, 1, make_msg(f, dest=0))
        bufs.set_e(2, 0, make_msg(f, dest=2))
        found = {(d, p, k) for d, p, k, _ in bufs.iter_messages()}
        assert found == {(0, 1, "R"), (2, 0, "E")}

    def test_iter_skips_empty_components(self):
        bufs = ForwardingBuffers(5)
        assert list(bufs.iter_messages()) == []

    def test_copies_of_tracks_uid(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(3)
        msg = make_msg(f, dest=1)
        bufs.set_r(1, 0, msg)
        bufs.set_e(1, 2, msg.forwarded_copy(0))
        assert set(bufs.copies_of(msg.uid)) == {(1, 0, "R"), (1, 2, "E")}
        assert bufs.copies_of(999) == []


class TestOccupiedComponentsIndex:
    def test_starts_empty(self):
        bufs = ForwardingBuffers(4)
        assert bufs.occupied_components() == set()

    def test_writes_add_and_clears_remove(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(4)
        bufs.set_r(2, 1, make_msg(f, dest=2))
        assert bufs.occupied_components() == {2}
        bufs.set_e(2, 3, make_msg(f, dest=2))
        bufs.set_r(2, 1, None)
        assert bufs.occupied_components() == {2}  # one copy still stored
        bufs.set_e(2, 3, None)
        assert bufs.occupied_components() == set()

    def test_overwrite_keeps_membership(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(3)
        bufs.set_e(1, 2, make_msg(f))
        bufs.set_e(1, 2, make_msg(f))
        assert bufs.occupied_components() == {1}

    def test_move_r_to_e_keeps_membership(self):
        bufs = ForwardingBuffers(3)
        msg = make_msg()
        bufs.set_r(1, 0, msg)
        bufs.move_r_to_e(1, 0, msg.recolored(0, 1))
        assert bufs.occupied_components() == {1}

    def test_index_matches_counts(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(5)
        bufs.set_r(0, 1, make_msg(f, dest=0))
        bufs.set_e(3, 2, make_msg(f, dest=3))
        bufs.set_r(3, 4, make_msg(f, dest=3))
        want = {d for d in range(5) if occupied_in_component(bufs, d)}
        assert bufs.occupied_components() == want
