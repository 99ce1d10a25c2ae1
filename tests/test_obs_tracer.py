"""Tests for the message-lifecycle tracer (repro.obs.tracer)."""

import pytest

from repro.app.workload import uniform_workload
from repro.network.topologies import line_network, ring_network
from repro.obs import SCHEMA, MessageTracer
from repro.sim.runner import (
    build_baseline_simulation,
    build_simulation,
    delivered_and_drained,
)

from tests.helpers import AllMessagesTracer, complete_uids


def traced_run(net, *, count=6, seed=1, tracer=None, **kwargs):
    tracer = tracer or MessageTracer()
    sim = build_simulation(
        net,
        workload=uniform_workload(net.n, count, seed=seed),
        seed=seed + 1,
        tracer=tracer,
        **kwargs,
    )
    sim.run(200_000, halt=delivered_and_drained)
    return sim, tracer


class TestLifecycles:
    def test_every_message_complete(self):
        sim, tracer = traced_run(ring_network(6))
        assert complete_uids(tracer) == tracer.uids()
        assert len(tracer.uids()) == sim.ledger.generated_count

    def test_timeline_shape(self):
        _, tracer = traced_run(ring_network(6))
        for uid in tracer.uids():
            events = tracer.timeline(uid)
            kinds = [e.kind for e in events]
            # The causal skeleton: submitted, generated, buffered at least
            # once (bufR at the source), finally delivered.
            assert kinds[0] == "submit"
            assert kinds[1] == "generated"
            assert "buffer" in kinds
            assert kinds[-1] == "delivered"
            # Step stamps never go backwards along a timeline.
            steps = [e.step for e in events]
            assert steps == sorted(steps)
            # Round stamps are 1-based and monotone too.
            rounds = [e.round for e in events]
            assert all(r >= 1 for r in rounds)
            assert rounds == sorted(rounds)

    def test_hop_path_starts_in_source_bufr(self):
        _, tracer = traced_run(line_network(4))
        for uid in tracer.uids():
            gen = next(e for e in tracer.timeline(uid) if e.kind == "generated")
            hops = [
                (e.proc, e.buffer) for e in tracer.timeline(uid) if e.kind == "buffer"
            ]
            assert hops[0] == (gen.proc, "R"), "R1 writes bufR at the source"
            # Hops alternate through the two-buffer scheme: every processor
            # that received the message shows an R write then an E write.
            assert hops[1] == (gen.proc, "E"), "R2 moves it to bufE"

    def test_delivery_happens_at_destination(self):
        _, tracer = traced_run(ring_network(6))
        for uid in tracer.uids():
            events = tracer.timeline(uid)
            sub = next(e for e in events if e.kind == "submit")
            delivered = events[-1]
            assert delivered.kind == "delivered"
            assert delivered.proc == sub.dest

    def test_invalid_excluded_by_default(self):
        _, tracer = traced_run(
            ring_network(5), garbage={"fraction": 0.4, "seed": 3}
        )
        assert all(uid > 0 for uid in tracer.uids())

    def test_include_invalid(self):
        _, tracer = traced_run(
            ring_network(5),
            garbage={"fraction": 0.4, "seed": 3},
            tracer=AllMessagesTracer(),
        )
        assert any(uid < 0 for uid in tracer.uids())


class TestAttachment:
    def test_double_attach_rejected(self):
        tracer = MessageTracer()
        net = ring_network(4)
        build_simulation(net, tracer=tracer, seed=0)
        with pytest.raises(RuntimeError):
            build_simulation(net, tracer=tracer, seed=0)

    def test_engine_notifier_keeps_working_under_tracer(self):
        # The tracer chains *behind* SSMFP's dirty-set hook; the
        # incremental engine must produce the identical run with and
        # without a tracer attached.
        net = ring_network(6)
        wl = uniform_workload(net.n, 6, seed=4)
        plain = build_simulation(net, workload=wl, seed=5)
        r1 = plain.run(200_000, halt=delivered_and_drained)
        traced = build_simulation(
            net, workload=wl, seed=5, tracer=MessageTracer()
        )
        r2 = traced.run(200_000, halt=delivered_and_drained)
        assert (r1.steps, r1.rounds, r1.rule_counts) == (
            r2.steps,
            r2.rounds,
            r2.rule_counts,
        )

    def test_baseline_gets_ledger_level_lifecycle(self):
        tracer = MessageTracer()
        net = ring_network(5)
        sim = build_baseline_simulation(
            net,
            workload=uniform_workload(net.n, 4, seed=2),
            seed=3,
        )
        tracer.attach(sim)
        sim.run(200_000, halt=delivered_and_drained, raise_on_limit=False)
        assert tracer.uids()
        for uid in tracer.uids():
            kinds = {e.kind for e in tracer.timeline(uid)}
            assert "generated" in kinds


class TestRendering:
    def test_format_timeline(self):
        _, tracer = traced_run(ring_network(5))
        uid = tracer.uids()[0]
        text = tracer.format_timeline(uid)
        assert f"uid {uid}" in text
        assert "generated" in text
        assert "delivered" in text
        assert "bufR" in text and "bufE" in text

    def test_format_timeline_unknown_uid(self):
        assert "no events" in MessageTracer().format_timeline(999)

    def test_to_rows_schema(self):
        _, tracer = traced_run(ring_network(5))
        rows = tracer.to_rows()
        assert rows
        assert all(
            r["schema"] == SCHEMA and r["kind"] == "trace_event" for r in rows
        )
        # Per-uid seq restarts and is dense.
        first_uid = rows[0]["uid"]
        seqs = [r["seq"] for r in rows if r["uid"] == first_uid]
        assert seqs == list(range(len(seqs)))
