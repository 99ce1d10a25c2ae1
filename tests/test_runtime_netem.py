"""Tests for the fault-injecting netem transport decorator.

Since the batching PR the adversary draws faults **per record**: a batch
is torn apart, every record gets its own loss/dup/latency/reorder draws,
and undelayed survivors are re-batched into one base send.  A delayed
record is an entry on one deadline heap: what is due in a wake-up is
re-batched per directed edge, in (due, send order) order, into frames of
at most ``max_batch`` records.
"""

import asyncio
import gc
import random
import time

import pytest

from repro.errors import ConfigurationError
from repro.network.topologies import line_network
from repro.runtime.netem import NetemConfig, NetemTransport
from repro.runtime.transport import LocalTransport, Transport
from repro.runtime.wire import ack_rec


def run(coro):
    return asyncio.run(coro)


class RecordingTransport(Transport):
    """A base transport that logs every frame it is handed."""

    def __init__(self, net):
        super().__init__(net)
        self.frames = []  # (src, dst, [record ids]) per send call
        self.arrived = asyncio.Event()

    async def send(self, src, dst, records):
        self.frames.append((src, dst, [rec["c"] for rec in records]))
        self.arrived.set()

    def records(self):
        return sum(len(ids) for _, _, ids in self.frames)

    def per_edge(self):
        """Record ids per directed edge, in arrival order."""
        edges = {}
        for src, dst, ids in self.frames:
            edges.setdefault((src, dst), []).extend(ids)
        return edges

    async def wait_for(self, count, timeout=5.0):
        """Until ``count`` records have been handed over."""
        async with asyncio.timeout(timeout):
            while self.records() < count:
                self.arrived.clear()
                await self.arrived.wait()


class FrozenClock:
    """Freezes the running loop's ``time()`` for a block, so every
    ``send`` inside it reads the clock the test sets — deadlines then
    depend on the seeded draws alone.  No timer fires while frozen."""

    def __enter__(self):
        self.loop = asyncio.get_running_loop()
        self.start = self.now = self.loop.time()
        self.loop.time = lambda: self.now
        return self

    def __exit__(self, *exc_info):
        del self.loop.time

    def at(self, offset):
        self.now = self.start + offset


def replay(seed, cfg, sends):
    """What the adversary does to ``sends`` — ``(clock offset, src, dst,
    record ids)`` per call — replayed draw by draw from the seed: the
    expected per-edge arrival order of the held copies and the fault
    counts.  Mirrors the documented draw order: loss, dup, then latency
    and reorder per copy."""
    rng = random.Random(seed)
    stats = {"dropped": 0, "duplicated": 0, "reordered": 0}
    held = []  # (due offset, send order, edge, record id, was reordered)
    for offset, src, dst, ids in sends:
        for rid in ids:
            if cfg.loss and rng.random() < cfg.loss:
                stats["dropped"] += 1
                continue
            copies = 1
            if cfg.dup and rng.random() < cfg.dup:
                copies = 2
                stats["duplicated"] += 1
            for _ in range(copies):
                delay = rng.uniform(*cfg.latency)
                reordered = bool(cfg.reorder and rng.random() < cfg.reorder)
                if reordered:
                    delay += cfg.reorder_extra
                    stats["reordered"] += 1
                held.append((offset + delay, len(held), (src, dst), rid, reordered))
    held.sort()
    return held, stats


def drain_records(inbox):
    """All records currently in the inbox, flattened across frames."""
    records = []
    while not inbox.empty():
        _, batch = inbox.get_nowait()
        records.append(batch)
    return records


class TestNetemConfig:
    def test_noop_detection(self):
        assert NetemConfig().is_noop()
        assert not NetemConfig(loss=0.1).is_noop()
        assert not NetemConfig(latency=(0.0, 0.001)).is_noop()

    def test_from_spec(self):
        cfg = NetemConfig.from_spec(
            {
                "loss": 0.1,
                "dup": "0.2",
                "latency": [0.001, 0.002],
            }
        )
        assert cfg.loss == 0.1
        assert cfg.dup == 0.2
        assert cfg.latency == (0.001, 0.002)

    @pytest.mark.parametrize("key", ["flap_period", "flap_down", "blocked_edges"])
    def test_removed_knobs_are_refused(self, key):
        # Edge state belongs to the schedule's link_flap / partition: the
        # config is the five per-record knobs, and a retired one is named.
        with pytest.raises(ConfigurationError) as exc_info:
            NetemConfig.from_spec({key: 1})
        assert str(exc_info.value) == (
            f"unknown netem key(s) ['{key}']; valid keys: "
            "['dup', 'latency', 'loss', 'reorder', 'reorder_extra']"
        )

    def test_from_spec_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError) as exc_info:
            NetemConfig.from_spec({"loss": 0.1, "lossy": 0.2, "delya": 1})
        message = str(exc_info.value)
        assert "unknown netem key" in message
        assert "'delya', 'lossy'" in message  # names the offenders...
        assert "latency" in message  # ...and lists the valid vocabulary

    @pytest.mark.parametrize(
        "spec, names",
        [
            ({"loss": "x"}, "loss"),
            ({"loss": 1.5}, "loss"),
            ({"dup": -0.1}, "dup"),
            ({"reorder": 2}, "reorder"),
            ({"latency": [0.5]}, "latency"),
            ({"latency": "soon"}, "latency"),
            ({"latency": [-1.0, -0.5]}, "latency"),
            ({"latency": [0.005, 0.001]}, "latency"),
            ({"reorder_extra": -0.01}, "reorder_extra"),
            # Retired edge-state keys: any value is refused, by name.
            ({"flap_down": -1}, "flap_down"),
            ({"flap_period": 0}, "flap_period"),
            ({"flap_period": "often"}, "flap_period"),
        ],
    )
    def test_from_spec_is_the_one_range_rule(self, spec, names):
        with pytest.raises(ConfigurationError, match=names):
            NetemConfig.from_spec(spec)

    def test_from_spec_accepts_the_range_ends(self):
        cfg = NetemConfig.from_spec(
            {"loss": 1, "dup": 0, "latency": [0, 0], "reorder_extra": 0}
        )
        assert cfg.loss == 1.0 and cfg.latency == (0.0, 0.0)


class TestNetemTransport:
    def test_total_loss_drops_every_record_of_a_batch(self):
        async def body():
            net = line_network(2)
            netem = NetemTransport(LocalTransport(net), NetemConfig(loss=1.0), seed=1)
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(10)])
            assert inbox.empty()
            assert netem.fault_stats["netem_dropped"] == 10

        run(body())

    def test_partial_loss_rebatches_survivors(self):
        async def body():
            net = line_network(2)
            netem = NetemTransport(
                LocalTransport(net), NetemConfig(loss=0.5), seed=7
            )
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(40)])
            batches = drain_records(inbox)
            survivors = [r for b in batches for r in b]
            dropped = netem.fault_stats["netem_dropped"]
            assert len(survivors) + dropped == 40
            assert 0 < dropped < 40  # loss=0.5 over 40 draws: both sides hit
            # Undelayed survivors arrive as ONE re-batched frame.
            assert len(batches) == 1

        run(body())

    def test_total_duplication_delivers_each_record_twice(self):
        async def body():
            net = line_network(2)
            netem = NetemTransport(LocalTransport(net), NetemConfig(dup=1.0), seed=1)
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(4)])
            batches = drain_records(inbox)
            records = [r for b in batches for r in b]
            assert len(records) == 8
            assert netem.fault_stats["netem_duplicated"] == 4

        run(body())

    def test_blocked_edge_is_silent(self):
        async def body():
            net = line_network(3)
            netem = NetemTransport(LocalTransport(net), NetemConfig(), seed=0)
            inbox1, inbox2 = asyncio.Queue(), asyncio.Queue()
            netem.bind(1, inbox1)
            netem.bind(2, inbox2)
            netem.force_down(0, 1)
            netem.reconfigure(NetemConfig())  # knobs only: the edge stays down
            await netem.send(0, 1, [ack_rec(0, 1), ack_rec(0, 2)])  # down
            await netem.send(1, 2, [ack_rec(0, 2)])  # open
            assert inbox1.empty()
            assert inbox2.qsize() == 1
            assert netem.fault_stats["netem_dropped"] == 2
            netem.force_up(1, 0)  # only force_up brings it back
            await netem.send(0, 1, [ack_rec(0, 3)])
            assert inbox1.qsize() == 1

        run(body())

    def test_latency_delays_records(self):
        async def body():
            net = line_network(2)
            cfg = NetemConfig(latency=(0.01, 0.02))
            netem = NetemTransport(LocalTransport(net), cfg, seed=3)
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            sent = time.monotonic()
            await netem.send(0, 1, [ack_rec(0, 7), ack_rec(0, 8)])
            assert inbox.empty()  # not yet: both records are held
            got = []
            while len(got) < 2:
                src, batch = await asyncio.wait_for(inbox.get(), 2.0)
                assert src == 0
                assert time.monotonic() - sent >= 0.01  # never before lo
                got.extend(rec["c"] for rec in batch)
            assert sorted(got) == [7, 8]
            await netem.close()

        run(body())

    def test_seeded_fault_pattern_is_deterministic(self):
        async def pattern(seed):
            net = line_network(2)
            netem = NetemTransport(
                LocalTransport(net), NetemConfig(loss=0.5), seed=seed
            )
            inbox = asyncio.Queue()
            netem.bind(1, inbox)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(50)])
            return [
                r["c"] for b in drain_records(inbox) for r in b
            ]

        a = run(pattern(seed=9))
        b = run(pattern(seed=9))
        c = run(pattern(seed=10))
        assert a == b
        assert a != c  # the adversary really depends on the seed


class TestDeadlineHeap:
    """The hold is one heap and one timer: the same adversary as the
    Task-per-record hold it replaced, re-batched per directed edge."""

    CHAOS = NetemConfig(
        loss=0.15, dup=0.25, reorder=0.25, latency=(0.001, 0.012),
        reorder_extra=0.02,
    )

    @staticmethod
    def sends():
        """Three directed edges of line(3) taking turns, 3 ms apart."""
        edges = [(0, 1), (1, 0), (1, 2)]
        return [
            (0.003 * call, *edges[call % 3], list(range(10 * call, 10 * call + 10)))
            for call in range(9)
        ]

    async def drive(self, seed, cfg=None, sends=None, **netem_kwargs):
        """Replay ``sends`` against a recording base on a frozen clock and
        wait for every held copy; returns (expected hold, netem, base)."""
        cfg = cfg or self.CHAOS
        sends = sends or self.sends()
        expected, _ = replay(seed, cfg, sends)
        base = RecordingTransport(line_network(3))
        netem = NetemTransport(base, cfg, seed=seed, **netem_kwargs)
        with FrozenClock() as clock:
            for offset, src, dst, ids in sends:
                clock.at(offset)
                await netem.send(src, dst, [ack_rec(0, rid) for rid in ids])
        await base.wait_for(len(expected))
        return expected, netem, base

    def test_held_records_arrive_per_edge_in_due_then_send_order(self):
        async def body():
            expected, netem, base = await self.drive(seed=11)
            want = {}
            for _, _, edge, rid, _ in expected:
                want.setdefault(edge, []).append(rid)
            assert base.per_edge() == want
            await netem.close()
            return expected

        expected = run(body())
        per_edge = {}
        for _, _, edge, rid, reordered in expected:
            per_edge.setdefault(edge, []).append((rid, reordered))
        # The seed shows what the test is for: a reorder_extra record
        # landing behind a later call's traffic on its edge (ten ids a
        # call) ...
        assert any(
            reordered and any(ahead // 10 > rid // 10 for ahead, _ in seq[:i])
            for seq in per_edge.values()
            for i, (rid, reordered) in enumerate(seq)
        )
        # ... and both copies of a dup on independent delays: something
        # arrives between them.
        places = {}
        for edge, seq in per_edge.items():
            for i, (rid, _) in enumerate(seq):
                places.setdefault(rid, []).append(i)
        assert any(len(at) == 2 and at[1] - at[0] > 1 for at in places.values())

    def test_edges_never_share_a_frame_and_groups_split_at_max_batch(self):
        async def body():
            # One fixed delay and one clock reading: everything is due in
            # the same wake-up.
            cfg = NetemConfig(latency=(0.005, 0.005))
            sends = [
                (0.0, 0, 1, list(range(0, 20))),
                (0.0, 1, 2, list(range(100, 105))),
                (0.0, 1, 0, list(range(200, 208))),
                (0.0, 0, 1, list(range(20, 23))),
            ]
            _, netem, base = await self.drive(7, cfg, sends, max_batch=8)
            sent = {(0, 1): 23, (1, 2): 5, (1, 0): 8}
            for (src, dst), count in sent.items():
                frames = [ids for s, d, ids in base.frames if (s, d) == (src, dst)]
                assert sum(map(len, frames)) == count
                assert all(len(ids) <= 8 for ids in frames)
                assert len(frames) <= -(-count // 8)
            # The envelope names the edge every record in it was sent on.
            for src, dst, ids in base.frames:
                low = {(0, 1): 0, (1, 2): 100, (1, 0): 200}[(src, dst)]
                assert all(low <= rid < low + 100 for rid in ids)
            assert base.per_edge()[(0, 1)] == list(range(23))  # send order
            await netem.close()

        run(body())

    def test_holding_a_thousand_records_adds_no_task(self):
        async def body():
            base = RecordingTransport(line_network(2))
            netem = NetemTransport(base, NetemConfig(latency=(0.2, 0.3)), seed=1)
            before = len(asyncio.all_tasks())
            for call in range(20):
                await netem.send(
                    0, 1, [ack_rec(0, 50 * call + i) for i in range(50)]
                )
            await asyncio.sleep(0)
            assert len(asyncio.all_tasks()) == before
            assert netem.held() == 1000 and base.frames == []
            await netem.close()
            assert netem.held() == 0

        run(body())

    @pytest.mark.filterwarnings("error")
    def test_close_with_records_held_is_prompt_and_final(self):
        complaints = []

        async def body():
            asyncio.get_running_loop().set_exception_handler(
                lambda loop, context: complaints.append(context)
            )
            base = RecordingTransport(line_network(2))
            netem = NetemTransport(base, NetemConfig(latency=(0.2, 0.3)), seed=1)
            await netem.send(0, 1, [ack_rec(0, i) for i in range(100)])
            started = time.monotonic()
            await netem.close()
            assert time.monotonic() - started < 0.1
            # A send after close holds nothing that could fire later.
            await netem.send(0, 1, [ack_rec(0, 100)])
            await asyncio.sleep(0.35)  # past every deadline drawn
            assert base.frames == []

        asyncio.run(body(), debug=True)
        gc.collect()  # "Task was destroyed but it is pending" comes from __del__
        assert complaints == []

    def test_reconfigure_does_not_move_deadlines_already_drawn(self):
        async def body():
            base = RecordingTransport(line_network(2))
            netem = NetemTransport(base, NetemConfig(latency=(0.05, 0.05)), seed=1)
            sent = time.monotonic()
            await netem.send(0, 1, [ack_rec(0, 1)])
            netem.reconfigure(NetemConfig())  # no delay from here on
            await netem.send(0, 1, [ack_rec(0, 2)])
            assert base.per_edge() == {(0, 1): [2]}  # 1 is still held
            netem.reconfigure(NetemConfig(latency=(5.0, 5.0)))
            await netem.send(0, 1, [ack_rec(0, 3)])
            await base.wait_for(2, timeout=1.0)
            assert base.per_edge() == {(0, 1): [2, 1]}
            assert 0.05 <= time.monotonic() - sent < 1.0  # 3 waits its 5 s
            await netem.close()

        run(body())

    def test_forcing_an_edge_down_does_not_recall_held_records(self):
        async def body():
            base = RecordingTransport(line_network(2))
            netem = NetemTransport(base, NetemConfig(latency=(0.01, 0.01)), seed=1)
            await netem.send(0, 1, [ack_rec(0, 1)])
            netem.force_down(0, 1)
            await netem.send(0, 1, [ack_rec(0, 2)])  # dropped at the edge
            await base.wait_for(1, timeout=1.0)
            assert base.per_edge() == {(0, 1): [1]}
            assert netem.fault_stats["netem_dropped"] == 1
            await netem.close()

        run(body())

    def test_same_seed_same_adversary_and_another_seed_differs(self):
        async def one(seed):
            _, netem, base = await self.drive(seed)
            stats = dict(netem.fault_stats)
            await netem.close()
            return stats, base.per_edge(), replay(seed, self.CHAOS, self.sends())[1]

        first, again, other = run(one(11)), run(one(11)), run(one(12))
        assert first == again
        assert first[1] != other[1]
        stats, _, replayed = first
        # fault_stats count the draws, as the replay does.
        assert stats["netem_dropped"] == replayed["dropped"] > 0
        assert stats["netem_duplicated"] == replayed["duplicated"] > 0
        assert stats["netem_reordered"] == replayed["reordered"] > 0


class TestSoakFraming:
    def test_held_records_are_rebatched_on_a_live_cluster(self):
        from repro.runtime import ClusterSpec, run_cluster

        # The bench's rt-soak-local section at a size the loop idles through.
        result = run_cluster(
            ClusterSpec(
                topology={"name": "ring", "kwargs": {"n": 8}},
                messages=2000,
                seed=7,
                netem={"loss": 0.02, "dup": 0.02, "reorder": 0.02,
                       "latency": [0.0, 0.001]},
                tick=0.002,
                retry_base=0.03,
                retry_cap=0.2,
            )
        )
        assert result.report.ok and not result.partial, result.summary()
        for fault in ("netem_dropped", "netem_duplicated", "netem_reordered"):
            assert result.netem_stats[fault] > 0
        stats = result.transport_stats
        assert stats["frames_sent"] * 2 < stats["records_sent"], stats
