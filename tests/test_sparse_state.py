"""Property-based invariants of the sparse lazily-materialized state layer.

The sparse stores (buffers, choice queues, routing rows, higher-layer
outboxes) all rest on one semantic claim: **an unallocated entry is a
clean empty buffer** — reading an absent entry yields exactly what a
freshly-reset dense entry would yield, and materializing or evicting
clean entries is *unobservable*: it changes neither the canonical
snapshot vector nor a single scheduling decision.

These tests attack that claim property-style: randomized protocol runs
(including externally corrupted initial states) are interleaved with
adversarial materialize/evict churn between steps, and every observable —
step traces, canonical snapshots, deliveries, the ledger — must be
bit-identical to an unperturbed twin of the same seed.
"""

import random

import pytest

from repro.core.buffers import ForwardingBuffers
from repro.app.workload import uniform_workload
from repro.core.choice import EMPTY_QUEUE_STATE, LazyChoiceTable
from repro.network.topologies import grid_network
from repro.routing.lazyrows import LazyRows
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.message import MessageFactory

from tests.helpers import (
    live_sources,
    make_ssmfp2,
    materialized_buffer_destinations,
    materialized_queue_count,
)
from tests.test_engine_equivalence import _end_state, _make_scenario, _signature

MAX_STEPS = 1_500

#: (seed, daemon) scenarios; seeds chosen to cover all topology kinds.
SCENARIOS = [(s * 271 + 11, d) for s in range(4)
             for d in ("sync", "distributed", "round_robin")]


def _routing_fixpoint(routing, d):
    """True iff destination ``d``'s rows match the converged fixpoint (or
    are unmaterialized, which reads the same)."""
    dist = routing.dist.rows.get(d)
    hop = routing.hop.rows.get(d)
    return (dist is None or dist == routing._fixpoint_dist_row(d)) and (
        hop is None or hop == routing._fixpoint_hop_row(d)
    )


def _churn(sim, rng: random.Random) -> None:
    """Adversarial materialize/evict churn: force clean entries into
    existence, read absent ones through every public path, evict whatever
    is quiescent.  None of it may be observable."""
    proto = sim.forwarding
    n = sim.net.n
    # Materialize random (likely clean) queue entries ...
    for _ in range(rng.randrange(1, 4)):
        d, p = rng.randrange(n), rng.randrange(n)
        proto.queues.materialize(d, p)
    # ... and read others without materializing: the per-entry reads must
    # agree with the per-component rows.
    for _ in range(rng.randrange(1, 4)):
        d, p = rng.randrange(n), rng.randrange(n)
        queue = proto.queues.peek(d, p)
        assert proto.queues.row(d).get(p) is queue
        assert proto.queues.head(d, p) == (None if queue is None else queue.head())
        buf_r, buf_e = proto.bufs.rows(d)
        assert proto.bufs.get_r(d, p) is buf_r.get(p)
        assert proto.bufs.get_e(d, p) is buf_e.get(p)
    # Evict every clean queue entry the dice pick.
    for d, p, _q in list(proto.queues.iter_materialized()):
        if rng.random() < 0.5:
            proto.queues.evict_if_clean(d, p)
    # Routing rows: materialize a random destination's rows (fills with
    # the fixpoint when untouched) and evict rows sitting at the fixpoint.
    routing = sim.routing
    if isinstance(routing, SelfStabilizingBFSRouting):
        d = rng.randrange(n)
        routing.dist[d], routing.hop[d]  # noqa: B018 - materializing read
        for d in list(routing.dist.rows.keys() | routing.hop.rows.keys()):
            if rng.random() < 0.5 and _routing_fixpoint(routing, d):
                routing.dist.evict(d)
                routing.hop.evict(d)


class TestChurnIsUnobservable:
    @pytest.mark.parametrize("seed,daemon", SCENARIOS)
    def test_perturbed_run_is_bit_identical(self, seed, daemon):
        # Twin runs of the same seed: one pristine, one with materialize/
        # evict churn injected between steps.  Step traces, canonical
        # snapshot vectors and end states must never diverge.
        pristine = _make_scenario(seed, daemon, "fifo", full_scan=False)
        churned = _make_scenario(seed, daemon, "fifo", full_scan=False)
        rng = random.Random(seed ^ 0xC0FFEE)
        for _ in range(MAX_STEPS):
            _churn(churned, rng)
            assert churned.forwarding.snapshot() == pristine.forwarding.snapshot()
            assert churned.routing.snapshot() == pristine.routing.snapshot()
            ra = pristine.step()
            rb = churned.step()
            assert _signature(ra) == _signature(rb), f"diverged at {ra.step}"
            if delivered_and_drained(pristine) and ra.terminal:
                break
        assert _end_state(churned) == _end_state(pristine)

    @pytest.mark.parametrize("seed", range(3))
    def test_churn_under_adversarial_state_debug_checked(self, seed):
        # Fully corrupted initial state (routing, garbage, scrambled
        # queues) with the incremental cache cross-check enabled: churn
        # still must not flip a single scheduling decision.
        pristine = _make_scenario(seed * 37 + 5, "distributed", "aged_fair",
                                  full_scan=False, adversarial=True,
                                  debug_check=True)
        churned = _make_scenario(seed * 37 + 5, "distributed", "aged_fair",
                                 full_scan=False, adversarial=True,
                                 debug_check=True)
        rng = random.Random(seed)
        for _ in range(500):
            _churn(churned, rng)
            ra = pristine.step()
            rb = churned.step()
            assert _signature(ra) == _signature(rb)
            if delivered_and_drained(pristine) and ra.terminal:
                break
        assert _end_state(churned) == _end_state(pristine)


class TestEvictedReadsAreCleanEmpty:
    def test_buffer_rows_evict_when_vacated(self):
        f = MessageFactory()
        bufs = ForwardingBuffers(8)
        msg = f.generated("m", 0, 3, 0, 0)
        bufs.set_r(3, 1, msg)
        assert materialized_buffer_destinations(bufs) == {3}
        bufs.set_r(3, 1, None)
        # Quiescent: the row is gone, and reads are clean-empty.
        assert materialized_buffer_destinations(bufs) == set()
        assert bufs.get_r(3, 1) is None and bufs.get_e(3, 1) is None
        assert bufs.total_occupied() == 0

    def test_queue_reads_never_materialize(self):
        table = LazyChoiceTable("fifo")
        assert table.head(5, 2) is None
        assert table.peek(5, 2) is None
        assert table.row(5) == {}
        table.serve(5, 2, 2)             # serving an absent queue: no-op
        assert table.snapshot() == ()
        assert materialized_queue_count(table) == 0  # nothing was allocated

    def test_queue_evict_then_read_is_clean_empty(self):
        table = LazyChoiceTable("fifo")
        table.materialize(1, 0).sync([7], None)
        assert materialized_queue_count(table) == 1
        table.peek(1, 0).sync([], None)  # candidate gone: reconciles to empty
        assert table.peek(1, 0).state() == EMPTY_QUEUE_STATE
        table.evict_if_clean(1, 0)
        assert materialized_queue_count(table) == 0
        assert table.head(1, 0) is None and table.peek(1, 0) is None

    def test_evict_refuses_dirty_queues(self):
        table = LazyChoiceTable("fifo")
        table.materialize(1, 0).sync([7], None)
        table.evict_if_clean(1, 0)  # nonempty: must refuse
        assert materialized_queue_count(table) == 1
        assert table.head(1, 0) == 7

    def test_lazyrows_evicted_row_refills_identically(self):
        calls = []

        def fill(d):
            calls.append(d)
            return [d, d + 1, d + 2]

        rows = LazyRows(fill)
        row = rows[4]
        row[1] = 99                      # direct mutation lands in the store
        assert rows[4] == [4, 99, 6]
        rows.evict(4)
        assert 4 not in rows.rows
        assert rows[4] == [4, 5, 6]      # re-materialization is clean
        assert calls == [4, 4]

    def test_routing_reads_never_materialize(self):
        # next_hop reads an absent row through the fixpoint, so only
        # written rows are "touched" and examined by a rebuild — also
        # when SSMFP2's buffer sink asks for the hop of an unowned copy.
        net = grid_network(4, 4)
        routing = SelfStabilizingBFSRouting(net)
        proto = make_ssmfp2(net, routing)
        for p in net.processors():
            for d in net.processors():
                assert routing.next_hop(p, d) == routing._fixpoint_hop_row(d)[p]
        f = proto.factory
        proto.bufs.set_r(5, 6, f.invalid("copy", net.neighbors(6)[0], 0, 5))
        proto.bufs.set_r(9, 6, f.invalid("owned", 6, 0, 9))
        assert proto.offered_message(5, 6) is None
        assert not routing.dist.rows and not routing.hop.rows
        assert all(routing.enabled_actions(p) == [] for p in net.processors())
        assert routing.component_evals == 0

    def test_runtime_dest_queues_evict_and_reread_empty(self):
        from repro.runtime.hop import _DestQueues

        queues = _DestQueues()
        queues.ensure(7).append("x")
        assert queues.live() == {7}
        assert queues.size(7) == 1
        queues.evict(7)                  # nonempty: refuses
        assert queues.live() == {7}
        queues.ensure(7).popleft()
        queues.evict(7)
        assert queues.live() == set()
        assert queues[7] == ()           # absent reads as empty
        assert queues.size(7) == 0
        assert queues.empty()


class TestSnapshotCanonicality:
    @pytest.mark.parametrize("seed", range(4))
    def test_snapshot_is_materialization_independent(self, seed):
        # One logical state, many materializations: the canonical vector
        # must not depend on which clean entries happen to be allocated.
        sim = _make_scenario(seed * 101 + 3, "distributed", "fifo",
                             full_scan=False)
        rng = random.Random(seed)
        for _ in range(40):
            sim.step()
        before = (sim.forwarding.snapshot(), sim.routing.snapshot(),
                  sim.hl.snapshot())
        for _ in range(10):
            _churn(sim, rng)
        after = (sim.forwarding.snapshot(), sim.routing.snapshot(),
                 sim.hl.snapshot())
        assert after == before

    @pytest.mark.parametrize("seed", range(4))
    def test_restore_round_trips_through_churn(self, seed):
        sim = _make_scenario(seed * 53 + 9, "distributed", "aged",
                             full_scan=False)
        rng = random.Random(seed + 1)
        for _ in range(30):
            sim.step()
        vec = sim.forwarding.snapshot()
        routing_vec = sim.routing.snapshot()
        for _ in range(25):
            sim.step()
        _churn(sim, rng)
        sim.forwarding.restore(vec)
        sim.routing.restore(routing_vec)
        assert sim.forwarding.snapshot() == vec
        assert sim.routing.snapshot() == routing_vec


class TestHigherLayerSparsity:
    def test_outboxes_evict_when_drained(self):
        from repro.app.higher_layer import HigherLayer

        hl = HigherLayer(6)
        hl.submit(2, "a", 4)
        assert live_sources(hl) == {2}
        hl.before_step(0)
        hl.consume_request(2)
        assert live_sources(hl) == set()
        assert hl.pending_count(2) == 0
        assert hl.next_destination(2) is None
        assert hl.outboxes() == ()

    def test_request_flags_are_sparse(self):
        from repro.app.higher_layer import HigherLayer

        hl = HigherLayer(1000)
        assert hl.request[777] is False
        hl.request[777] = True
        assert hl.request.raised() == {777}
        hl.request[777] = False
        assert hl.request.raised() == set()


class TestSimulatorNeverArmsTheJournals:
    """Snapshot anchors and write journals are the verifiers' tools, armed
    by the first ``restore()``.  A simulation never restores: after a run
    every journal is still unarmed and no store carries per-write residue,
    so the simulator's memory cannot drift with the number of writes."""

    def test_grid8x8_run_leaves_no_anchor_and_no_journal(self):
        net = grid_network(8, 8)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 120, seed=16),
            seed=16,
            routing_corruption={"kind": "random", "fraction": 0.3},
            garbage={"seed": 16, "fraction": 0.05},
        )
        result = sim.run(20_000, halt=delivered_and_drained)
        assert result.halted_by_predicate and sim.sim.rule_counts["R6"] >= 120
        proto, routing = sim.forwarding, sim.routing
        for part in (proto, proto.bufs, proto.queues, proto.hl, proto.ledger,
                     proto.factory, routing):
            assert part._anchor is None
        assert proto._home_dirt is None
        for part in (proto.bufs, proto.queues, routing):
            assert part._journal is None
        assert all(
            queue._journal is None
            for _, _, queue in proto.queues.iter_materialized()
        )
