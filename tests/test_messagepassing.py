"""Tests for the message-passing substrate, the product's port
(``HopCore`` behind ``HopMPNode``) and the naive reference port
(``tests/reference_mp_naive.py``) whose starvation is the open problem.

Every port run is judged after it by ``check_events``, the live runtime's
verdict, over the nodes' event logs; a run with nothing injected is a clean
start, so ``require_clean_start`` fails it on any invalid delivery, as it
does a live cluster.  Forged records carry uids from ≤ 0,
a range the generator never issues, except where a test forges a uid on
purpose: the pinned ``v``-bit probe (999, past any uid a 3-message run
issues) and the collision cases (the live uid 1).
"""

import copy
import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.messagepassing.engine import ChannelFaults, MessagePassingSimulator
from repro.messagepassing.forwarding import HopMPNode, build_mp_network
from repro.network.topologies import (
    grid_network,
    line_network,
    random_connected_network,
    ring_network,
    star_network,
)
from repro.routing.static import StaticRouting
from repro.runtime.conformance import check_events, require_clean_start
from repro.runtime.hop import RuntimeParams
from repro.runtime.wire import data_rec

from tests.helpers import inject, run_events
from tests.reference_mp_naive import ACCEPT, OFFER, build_naive_network


def hop_network(net, seed=0, faults=None, routing=None):
    """The product's port on ``net`` (static routing unless given)."""
    return build_mp_network(
        net, routing or StaticRouting(net), seed=seed, faults=faults
    )


def arrivals(node):
    """Every ``(sender, record)`` the simulator hands ``node``'s core, in
    order; the core still handles each."""
    got = []
    on_records = node.core.on_records

    def watched(src, records, now, out):
        got.extend((src, rec) for rec in records)
        on_records(src, records, now, out)

    node.core.on_records = watched
    return got


def drain_channels(sim):
    while sim.in_flight():
        sim.step()


class TestEngine:
    def test_node_count_checked(self):
        net = line_network(3)
        node = HopMPNode(0, net, StaticRouting(net))
        with pytest.raises(ConfigurationError, match="one node per"):
            MessagePassingSimulator(net, [node], seed=0)

    def test_send_requires_edge(self):
        class Teleport(StaticRouting):
            def next_hop(self, p, d):
                return d  # 0 -> 2 on line(3) is no edge

        net = line_network(3)
        sim, nodes = hop_network(net, routing=Teleport(net))
        nodes[0].submit("m", 2)
        with pytest.raises(ConfigurationError, match="not an edge"):
            sim.run(10)
        with pytest.raises(ConfigurationError, match="not an edge"):
            inject(sim, 0, 2, "x")

    def test_fifo_per_channel(self):
        # Garbage records: the core drops each, so no timer ever fires.
        sim, nodes = hop_network(line_network(2), seed=1)
        got = arrivals(nodes[1])
        inject(sim, 0, 1, "first")
        inject(sim, 0, 1, "second")
        drain_channels(sim)
        assert got == [(0, "first"), (0, "second")]
        assert nodes[1].core.counters["stale_records_dropped"] == 2
        assert sim.events == 2

    def test_local_actions_scheduled(self):
        # A node's one local action is its timer, enabled while its core
        # holds anything.
        sim, nodes = hop_network(line_network(3), seed=2)
        nodes[0].submit("m", 1)
        sim.run(10_000)
        assert verdict(nodes, expect_generated=1).delivered == 1
        assert nodes[0].now > 0 and nodes[1].now > 0
        assert nodes[2].now == 0.0  # idle throughout: its timer never ran

    def test_quiescence_detected(self):
        sim, nodes = hop_network(line_network(2), seed=3)
        nodes[0].submit("m", 1)
        sim.run(10_000)  # delivers, acknowledges, releases, then quiesces
        events = sim.events
        assert not sim.step()
        assert sim.events == events
        assert sim.in_flight() == 0
        assert all(node.core.is_idle() for node in nodes)

    def test_inject_plants_garbage(self):
        sim, _ = hop_network(line_network(2), seed=4)
        inject(sim, 0, 1, "garbage")
        assert sim.in_flight() == 1


def verdict(nodes, expect_generated=None):
    """``check_events`` over every node's log."""
    return check_events(
        (event for node in nodes for event in node.events),
        expect_generated=expect_generated,
    )


def run_port(net, submissions, seed, max_events=200_000):
    """The naive reference port from a clean start, until every message is
    generated and delivered."""
    sim, nodes = build_naive_network(net, seed=seed)
    for src, payload, dest in submissions:
        nodes[src].submit(payload, dest)
    # Two events per message once it is generated and delivered.
    sim.run(max_events, halt=lambda s: sum(len(n.events) for n in nodes)
            == 2 * len(submissions))
    return sim, nodes, require_clean_start(
        verdict(nodes, expect_generated=len(submissions))
    )


class TestForwardingPortCleanStart:
    def test_single_message(self):
        net = line_network(4)
        _, _, report = run_port(net, [(0, "m", 3)], seed=1)
        assert report.ok and report.delivered == 1

    @pytest.mark.parametrize("seed", range(6))
    def test_exactly_once_under_asynchrony(self, seed):
        net = random_connected_network(7, 4, seed=seed)
        subs = [
            (s, f"{s}->{d}", d)
            for s in net.processors()
            for d in net.processors()
            if s != d and (s + d + seed) % 3 == 0
        ]
        _, _, report = run_port(net, subs, seed=seed)
        assert report.generated == len(subs)
        assert report.ok  # exactly once

    def test_same_payload_stream(self):
        net = line_network(5)
        subs = [(0, "dup", 4)] * 6
        _, _, report = run_port(net, subs, seed=9)
        assert report.ok and report.delivered == 6

    @pytest.mark.parametrize(
        "builder",
        [
            lambda: ring_network(6),
            lambda: star_network(6),
            lambda: grid_network(2, 3),
        ],
        ids=["ring", "star", "grid"],
    )
    def test_topology_zoo(self, builder):
        net = builder()
        subs = [(p, f"m{p}", (p + 2) % net.n) for p in net.processors()
                if p != (p + 2) % net.n]
        _, _, report = run_port(net, subs, seed=5)
        assert report.ok

    def test_network_drains(self):
        net = line_network(4)
        sim, nodes, _ = run_port(net, [(0, "m", 3), (3, "w", 0)], seed=2)
        sim.run(100_000, halt=lambda s: all(n.is_drained() for n in nodes))
        assert all(node.is_drained() for node in nodes)


class TestOpenProblemFailures:
    """Arbitrary initial channel contents break the naive port's *liveness* —
    the concrete face of the open problem the paper names.

    Interestingly, the stop-and-wait handshake is robust in *safety* to a
    forged ACCEPT (the payload already rides in the earlier-FIFO OFFER, so
    early erasure still delivers exactly once — measured below).  What
    garbage does break is liveness: a forged OFFER is accepted into a
    reception buffer and, with no upstream holder, no RELEASE ever
    arrives — the buffer is wedged forever and every later valid message
    through it violates "delivered in a finite time".  SSMFP's rules R2/R5
    exist precisely to dissolve such orphaned receptions in the state
    model; the message-passing port has no counterpart, and inventing one
    that works from arbitrary channel states is the open problem.
    """

    def test_forged_accept_tolerated_in_safety(self):
        # Robustness result worth recording: the forged ACCEPT completes
        # the handshake early, but FIFO ordering already carried the
        # payload — the message is still delivered exactly once.
        for seed in range(8):
            net = line_network(3)
            sim, nodes = build_naive_network(net, seed=seed)
            inject(sim, 1, 0, (ACCEPT, 2))  # garbage present from step 0
            nodes[0].submit("m", 2)
            sim.run(100_000)
            report = verdict(nodes)
            assert report.ok and report.delivered == 1
            assert report.invalid_delivered == 0

    def test_forged_offer_wedges_the_reception_buffer(self):
        net = line_network(3)
        sim, nodes = build_naive_network(net, seed=3)
        # Garbage OFFER in the 1 -> 2 channel: node 2 accepts the phantom
        # into bufR_2(2); nobody will ever RELEASE it.
        inject(sim, 1, 2, (OFFER, 2, "phantom", -99, False))
        sim.run(50_000)
        rec = nodes[2].buf_r[2]
        assert rec is not None and rec.payload == "phantom"
        assert not rec.released  # wedged forever

    def test_wedged_buffer_starves_valid_traffic(self):
        # The liveness violation: after the phantom wedges bufR_2(2), a
        # real message to 2 is never delivered.
        net = line_network(3)
        sim, nodes = build_naive_network(net, seed=5)
        inject(sim, 1, 2, (OFFER, 2, "phantom", -99, False))
        nodes[0].submit("real", 2)
        sim.run(200_000)
        report = verdict(nodes)
        assert report.generated == 1
        assert report.undelivered  # starved: SP's liveness broken

    def test_garbage_of_unknown_kind_is_dropped(self):
        net = line_network(3)
        sim, nodes = build_naive_network(net, seed=7)
        inject(sim, 0, 1, ("NOISE", 2, "x"))
        nodes[0].submit("m", 2)
        sim.run(100_000, halt=lambda s: sum(len(n.events) for n in nodes) == 2)
        report = verdict(nodes)
        assert report.ok and report.delivered == 1
        assert report.invalid_delivered == 0


class TestChannelFaults:
    def test_probabilities_validated(self):
        with pytest.raises(ConfigurationError, match="outside"):
            ChannelFaults(loss=1.5)
        with pytest.raises(ConfigurationError, match="outside"):
            ChannelFaults(dup=-0.1)

    def test_loss_drops_raw_messages(self):
        sim, nodes = hop_network(
            line_network(2), seed=0, faults=ChannelFaults(loss=1.0)
        )
        got = arrivals(nodes[1])
        for i in range(5):
            inject(sim, 0, 1, i)
        drain_channels(sim)
        assert got == []
        assert sim.lost_messages == 5

    def test_dup_redelivers(self):
        sim, nodes = hop_network(
            line_network(2), seed=0, faults=ChannelFaults(dup=0.5)
        )
        got = arrivals(nodes[1])
        for i in range(20):
            inject(sim, 0, 1, i)
        drain_channels(sim)
        assert len(got) == 20 + sim.duplicated_messages
        assert sim.duplicated_messages > 0

    def test_reorder_breaks_fifo(self):
        sim, nodes = hop_network(
            line_network(2), seed=1, faults=ChannelFaults(reorder=0.9)
        )
        got = arrivals(nodes[1])
        for i in range(30):
            inject(sim, 0, 1, i)
        drain_channels(sim)
        got = [p for _, p in got]
        assert sorted(got) == list(range(30))
        assert got != list(range(30))
        assert sim.reordered_messages > 0


def run_hardened(net, submissions, faults, seed, window=32, max_events=500_000,
                 prepare=None):
    sim, nodes = build_mp_network(
        net, StaticRouting(net), seed=seed,
        faults=faults, params=RuntimeParams(window=window),
    )
    if prepare is not None:
        prepare(nodes)  # e.g. wrap handlers before the first event
    for src, payload, dest in submissions:
        nodes[src].submit(payload, dest)

    def halt(s):
        return (
            core_counter(nodes, "delivered") == len(submissions)
            and s.in_flight() == 0
            and all(n.core.is_idle() for n in nodes)
        )

    done = run_events(sim, max_events, halt=halt)
    return done, sim, nodes, require_clean_start(
        verdict(nodes, expect_generated=len(submissions))
    )


def core_counter(nodes, name):
    return sum(n.core.counters[name] for n in nodes)


FAULTS = {
    "dup": ChannelFaults(dup=0.2),
    "loss": ChannelFaults(loss=0.2),
    "reorder": ChannelFaults(reorder=0.3),
    "all-three": ChannelFaults(loss=0.1, dup=0.1, reorder=0.1),
}
NETS = {"ring": ring_network, "line": line_network}
#: net x window x seed x faults.  ring(4) at the default window keeps the
#: ids this matrix had before windows and line(4) joined it.
MATRIX = [
    pytest.param(
        net, window, seed, mix,
        id=("" if (net, window) == ("ring", 32) else f"{net}-w{window}-")
        + f"{seed}-{mix}",
    )
    for net in NETS
    for window in (1, 4, 32)
    for seed in range(3)
    for mix in FAULTS
]


class TestHardenedPortUnderFaults:
    """The runtime's own lane code (``HopCore`` behind ``HopMPNode``) stays
    exactly-once under the seeded adversary, where the naive port breaks."""

    @staticmethod
    def ring_submissions(n, msgs):
        subs = []
        for i in range(msgs):
            src = i % n
            dst = (i * 2 + 1) % n
            if src == dst:
                dst = (dst + 1) % n
            subs.append((src, f"m{i}", dst))
        return subs

    @pytest.mark.parametrize("net,window,seed,mix", MATRIX)
    def test_exactly_once_under_faults(self, net, window, seed, mix):
        # 60 messages over 4 nodes: every lane carries enough for windows
        # 1, 4 and 32 to behave differently (SACK holes, fast retransmit,
        # tail-loss probes, standalone REL/RACK all fire in this matrix).
        subs = self.ring_submissions(4, 60)
        done, sim, nodes, report = run_hardened(
            NETS[net](4), subs, FAULTS[mix], seed, window
        )
        assert done, f"no drain: {report.delivered}/{len(subs)}"
        assert report.ok, report.summary()
        assert report.delivered == len(subs)

    @pytest.mark.parametrize("window", [1, 4, 32])
    def test_same_seed_twice_is_the_same_run(self, window):
        # The core has no hidden clock or RNG: one seed, one execution.
        def run():
            _, sim, nodes, _ = run_hardened(
                ring_network(4), self.ring_submissions(4, 60),
                FAULTS["all-three"], seed=5, window=window,
            )
            return (
                sim.events,
                [n.events for n in nodes],
                [n.core.counters for n in nodes],
                [n.core.hop_latencies for n in nodes],
            )

        first, second = run(), run()
        assert first == second
        assert sum(c["retries"] for c in first[2]) > 0  # not a trivial run

    def test_retransmission_does_not_double_deliver(self):
        # Duplication forces retransmissions AND duplicated acks at once;
        # exactly-once must survive both (the satellite's core claim).
        net = line_network(4)
        subs = [(0, f"m{i}", 3) for i in range(8)]
        done, sim, nodes, report = run_hardened(
            net, subs, ChannelFaults(dup=0.3), seed=11
        )
        assert done
        assert report.ok and report.delivered == 8
        assert sim.duplicated_messages > 0  # the adversary really acted
        dups_reacked = core_counter(nodes, "dup_data_acked")
        stale = core_counter(nodes, "stale_records_dropped")
        assert dups_reacked + stale > 0  # and the core really deduplicated

    def test_loss_forces_retransmissions(self):
        net = line_network(3)
        subs = [(0, f"m{i}", 2) for i in range(5)]
        done, sim, nodes, report = run_hardened(
            net, subs, ChannelFaults(loss=0.3), seed=2
        )
        assert done
        assert report.ok and report.delivered == 5
        assert sim.lost_messages > 0
        assert core_counter(nodes, "retries") > 0

    def test_fault_free_channels_unchanged(self):
        # With no faults the hardened path drains like the naive port.
        net = grid_network(2, 3)
        subs = [(p, f"m{p}", (p + 2) % net.n) for p in net.processors()
                if p != (p + 2) % net.n]
        done, sim, nodes, report = run_hardened(
            net, subs, ChannelFaults(), seed=4
        )
        assert done
        assert report.ok

    @pytest.mark.parametrize(
        "net,subs",
        [
            (line_network(3), [(0, f"m{i}", 2) for i in range(40)]),
            (ring_network(6), None),
        ],
        ids=["line3", "ring6"],
    )
    def test_received_records_are_read_only_forwarded_ones_fresh(self, net, subs):
        # A duplication fault re-enqueues the *same object*, so a receiver
        # that wrote to a record it was handed would corrupt the copy still
        # in the channel.  Snapshot every payload on arrival, compare after
        # the run's last event; and no dict a core emits is one it received.
        subs = subs or self.ring_submissions(6, 120)
        seen = []  # (the object handed over, its deep copy at that moment)

        def spy(node):
            core = node.core
            on_records, advance = core.on_records, core.advance
            mine = set()

            def fresh(out):
                assert all(id(rec) not in mine for _, rec in out)

            def watched_on_records(src, records, now, out):
                for rec in records:
                    seen.append((rec, copy.deepcopy(rec)))
                    mine.add(id(rec))  # kept alive by ``seen``: ids are stable
                on_records(src, records, now, out)
                fresh(out)

            def watched_advance(now, out):
                advance(now, out)
                fresh(out)

            core.on_records, core.advance = watched_on_records, watched_advance

        done, sim, nodes, report = run_hardened(
            net, subs, ChannelFaults(dup=0.3, reorder=0.2), seed=3,
            prepare=lambda nodes: [spy(node) for node in nodes],
        )
        assert done and report.ok and report.delivered == len(subs)
        assert sim.duplicated_messages > 0 and sim.reordered_messages > 0
        assert len({id(p) for p, _ in seen}) < len(seen)  # an object came twice
        assert all(payload == snapshot for payload, snapshot in seen)

    def test_naive_port_breaks_under_duplication(self):
        # The demonstration that motivates the hardened port: under a
        # duplicating channel the naive port double-delivers (or worse)
        # for at least one seed in a small pool.
        violating = 0
        for seed in range(10):
            net = ring_network(4)
            sim, nodes = build_naive_network(
                net, seed=seed, faults=ChannelFaults(dup=0.3)
            )
            for src, payload, dest in self.ring_submissions(4, 6):
                nodes[src].submit(payload, dest)
            sim.run(200_000)
            if require_clean_start(verdict(nodes)).violations:
                violating += 1
        assert violating > 0


def forged_probe(window, seq, uid, valid):
    """``line(2)``, seed 7: three messages 0 -> 1 and one forged DATA in
    the 0 -> 1 channel.  Returns whether the run quiesced, and its verdict."""
    sim, nodes = build_mp_network(
        line_network(2), StaticRouting(line_network(2)), seed=7,
        params=RuntimeParams(window=window),
    )
    for i in range(3):
        nodes[0].submit(f"m{i}", 1)
    inject(sim, 0, 1, data_rec(1, seq, uid, "forged", valid, 0))
    done = run_events(sim, 100_000)
    return done, verdict(nodes)


class TestForgedData:
    """A forged DATA record is judged by the generation log, never by the
    ``v`` bit it carries."""

    @pytest.mark.parametrize("window", [1, 4])
    def test_the_valid_bit_does_not_decide_the_verdict(self, window):
        # A forged uid 999 claiming ``v = True`` once stopped the run with a
        # mid-run SpecificationViolation; it now reads exactly as the same
        # record with ``v = False`` does.
        done_true, claims_valid = forged_probe(window, 1, 999, True)
        done_false, claims_invalid = forged_probe(window, 1, 999, False)
        assert done_true and done_false
        assert dataclasses.asdict(claims_valid) == dataclasses.asdict(claims_invalid)

    @pytest.mark.parametrize("valid", [True, False])
    @pytest.mark.parametrize("seq", [2, 4])
    @pytest.mark.parametrize("window", [1, 4])
    def test_a_forged_live_uid_reads_as_a_double_delivery(self, window, seq, valid):
        # A uid is the judge's label: a forged record carrying live uid 1
        # past the original's slot is a second delivery of message 1.
        done, report = forged_probe(window, seq, 1, valid)
        assert done and not report.ok
        assert "uid 1 delivered twice (duplication)" in report.violations
