"""Integration tests for the SSMFP protocol class."""

import pytest

from repro.core.invariants import InvariantChecker
from repro.network.topologies import line_network, ring_network, star_network
from repro.statemodel.composition import PriorityStack
from repro.statemodel.daemon import RoundRobinDaemon, SynchronousDaemon
from repro.statemodel.scheduler import Simulator

from tests.helpers import after_each_step, make_ssmfp, occupied_in_component


def drive(proto, daemon=None, max_steps=10_000, expect=None):
    """Run to terminal, or until `expect` messages are delivered."""
    sim = Simulator(proto.net.n, PriorityStack([proto]), daemon or SynchronousDaemon())
    for _ in range(max_steps):
        if expect is not None and proto.ledger.valid_delivered_count >= expect:
            return sim
        if sim.step().terminal:
            return sim
    raise AssertionError("did not reach halt/terminal")


class TestEndToEndSmall:
    def test_single_message_line(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "m", 4)
        drive(proto, expect=1)
        assert proto.ledger.valid_delivered_count == 1
        assert proto.hl.delivered[0][0] == 4

    def test_bidirectional_traffic(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "east", 4)
        proto.hl.submit(4, "west", 0)
        drive(proto, expect=2)
        assert proto.ledger.valid_delivered_count == 2

    def test_pipeline_many_messages_same_flow(self, line5):
        proto = make_ssmfp(line5)
        for i in range(6):
            proto.hl.submit(0, f"m{i}", 4)
        drive(proto, expect=6)
        assert proto.ledger.valid_delivered_count == 6
        # FIFO per source: deliveries at 4 preserve submission order.
        payloads = [m.payload for (_, m, _) in proto.hl.delivered]
        assert payloads == [f"m{i}" for i in range(6)]

    def test_identical_payload_stream_exactly_once(self, line5):
        proto = make_ssmfp(line5)
        for _ in range(5):
            proto.hl.submit(0, "dup", 4)
        drive(proto, expect=5)
        assert proto.ledger.valid_delivered_count == 5

    def test_hotspot_star(self, star5):
        proto = make_ssmfp(star5)
        for leaf in range(1, 5):
            proto.hl.submit(leaf, f"from{leaf}", 0)
        drive(proto, RoundRobinDaemon(), expect=4)
        assert proto.ledger.valid_delivered_count == 4

    def test_all_pairs_ring(self, ring6):
        proto = make_ssmfp(ring6)
        count = 0
        for s in ring6.processors():
            for d in ring6.processors():
                if s != d:
                    proto.hl.submit(s, f"{s}->{d}", d)
                    count += 1
        drive(proto, max_steps=50_000, expect=count)
        assert proto.ledger.valid_delivered_count == count

    def test_invariants_hold_throughout(self, ring6):
        proto = make_ssmfp(ring6)
        for s in ring6.processors():
            proto.hl.submit(s, f"m{s}", (s + 3) % 6)
        sim = after_each_step(
            Simulator(ring6.n, PriorityStack([proto]), SynchronousDaemon()),
            InvariantChecker(proto).check,
        )
        for _ in range(5000):
            if proto.ledger.valid_delivered_count >= ring6.n:
                break
            if sim.step().terminal:
                break
        assert proto.ledger.all_valid_delivered()

    def test_network_drains_after_delivery(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "m", 4)
        drive(proto)  # run to terminal
        assert proto.network_is_empty()
        assert proto.ledger.all_valid_delivered()


class TestActiveDestinations:
    def test_idle_protocol_has_no_active_destinations(self, line5):
        proto = make_ssmfp(line5)
        assert proto.active_destinations() == set()

    def test_request_activates_destination(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "m", 3)
        proto.hl.before_step(0)
        assert proto.active_destinations() == {3}

    def test_occupied_buffer_activates(self, line5):
        proto = make_ssmfp(line5)
        proto.bufs.set_r(2, 1, proto.factory.invalid("g", 1, 0, 2))
        assert proto.active_destinations() == {2}

    def test_idle_processor_has_no_actions(self, line5):
        proto = make_ssmfp(line5)
        proto.before_step(0)
        assert all(not proto.enabled_actions(p) for p in line5.processors())


class TestSnapshotAndCandidates:
    def test_snapshot_lists_occupied_buffers(self, line5):
        proto = make_ssmfp(line5)
        proto.bufs.set_r(2, 1, proto.factory.invalid("g", 1, 0, 2))
        snap = proto.dump()
        assert "bufR_1(2)" in snap

    def test_candidates_include_requesting_self(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(2, "m", 0)
        proto.hl.before_step(0)
        assert proto.candidates(2, 0) == {2}

    def test_candidates_include_targeting_neighbors(self, line5):
        proto = make_ssmfp(line5)
        msg = proto.factory.invalid("g", 1, 0, 4)
        proto.bufs.set_e(4, 1, msg)  # nextHop_1(4) == 2
        assert proto.candidates(2, 4) == {1}
        assert proto.candidates(0, 4) == set()


class TestActiveDestinationIndex:
    def test_destination_deactivates_after_drain(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "m", 4)
        drive(proto)  # run to terminal: delivered and drained
        assert proto.network_is_empty()
        assert proto.active_destinations() == set()

    def test_index_matches_slow_scan_during_run(self, line5):
        proto = make_ssmfp(line5)
        proto.hl.submit(0, "a", 4)
        proto.hl.submit(3, "b", 1)
        sim = Simulator(proto.net.n, PriorityStack([proto]), SynchronousDaemon())
        for _ in range(40):
            report = sim.step()
            slow = {
                d
                for d in proto.net.processors()
                if occupied_in_component(proto.bufs, d) > 0
            }
            for p in proto.net.processors():
                if proto.hl.request[p]:
                    nd = proto.hl.next_destination(p)
                    if nd is not None:
                        slow.add(nd)
            assert proto.active_destinations() == slow
            if report.terminal:
                break
