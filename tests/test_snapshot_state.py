"""The explicit snapshot/restore state layer.

Two families of guarantees:

* **Round-trip identity** per stateful component: ``snapshot()`` → mutate
  arbitrarily → ``restore(vec)`` reinstates exactly the captured state
  (``snapshot()`` equals the vector again, and the full-system canonical
  form is unchanged).  Restores are diffing writes through the ordinary
  mutators, so the incremental engine's dirty channels fire for exactly
  the cells that changed — also asserted here.

* **Anchored restore**: a seeded random walk of the verifier's moves
  (expand through ``_System.successors``, evaluate guards at a child the
  excursion left, return to the anchor, jump to an unrelated vector,
  evaluate while away, out-of-band writes) compared after every step
  against a freshly built system brought to the same vector by the full
  diff.

* **Engine equivalence**: the snapshot-based model checker visits the
  bit-identical state set, transition count, terminal states and
  violations as the clone-per-transition reference explorer
  (``tests/reference_engines.py``) on the seed instances (safe *and*
  counterexample cases).  The liveness checker's graphs are pinned by
  ``tests/test_liveness.py``, whose cheaper cases kill every mutant the
  liveness comparison here killed (docs/TESTING.md §10).
"""

import copy
import random

import pytest

from repro.app.higher_layer import HigherLayer
from repro.core.buffers import ForwardingBuffers
from repro.core.choice import FairChoiceQueue
from repro.core.corruption import plant_invalid_message, plant_invalid_messages
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.experiments.exhaustive import _instances
from repro.network.topologies import line_network, ring_network
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting
from repro.statemodel.message import MessageFactory
from repro.statemodel.protocol import Protocol
from repro.verify.modelcheck import ModelChecker, _System

from tests.helpers import make_ssmfp, make_ssmfp2
from tests.reference_engines import DeepcopyModelChecker


class TestBufferSnapshot:
    def test_round_trip_identity(self):
        factory = MessageFactory()
        bufs = ForwardingBuffers(3)
        bufs.set_r(2, 0, factory.generated("a", 0, 2, 0, 0))
        bufs.set_e(2, 1, factory.invalid("g", 1, 0, 2))
        vec = bufs.snapshot()
        bufs.set_r(2, 0, None)
        bufs.set_r(0, 1, factory.invalid("x", 1, 1, 0))
        bufs.set_e(2, 1, factory.invalid("y", 1, 0, 2))
        bufs.restore(vec)
        assert bufs.snapshot() == vec

    def test_restore_notifies_exactly_the_diff(self):
        factory = MessageFactory()
        bufs = ForwardingBuffers(3)
        bufs.set_r(2, 0, factory.generated("a", 0, 2, 0, 0))
        bufs.set_e(1, 1, factory.invalid("g", 1, 1, 1))
        vec = bufs.snapshot()
        bufs.set_r(2, 0, None)          # will need re-filling
        events = []
        bufs.add_notifier(lambda d, p, kind: events.append((d, p, kind)))
        bufs.restore(vec)
        # Only the cleared cell is rewritten; the untouched E-buffer is not.
        assert events == [(2, 0, "R")]

    def test_restore_to_empty(self):
        factory = MessageFactory()
        bufs = ForwardingBuffers(2)
        vec = bufs.snapshot()
        bufs.set_r(1, 0, factory.generated("a", 0, 1, 0, 0))
        bufs.restore(vec)
        assert bufs.total_occupied() == 0


class TestChoiceQueueSnapshot:
    @pytest.mark.parametrize("policy", ["fifo", "fixed", "aged", "aged_fair"])
    def test_round_trip_identity(self, policy):
        q = FairChoiceQueue(policy=policy)
        q.sync({1, 2, 3})
        q.serve(q.head())
        vec = q.snapshot()
        q.sync({2, 4})
        q.serve(q.head())
        q.restore(vec)
        assert q.snapshot() == vec

    def test_restore_notifies_only_on_change(self):
        q = FairChoiceQueue(policy="fifo")
        q.sync({1, 2})
        vec = q.snapshot()
        events = []
        q.bind_notifier(lambda key, evt: events.append((key, evt)), key="k")
        q.restore(vec)                  # identical state: silent
        assert events == []
        q.sync({3})
        events.clear()
        q.restore(vec)                  # real change: one mutate event
        assert events == [("k", "mutate")]
        assert q.snapshot() == vec


class TestLedgerSnapshot:
    def test_round_trip_identity(self):
        factory = MessageFactory()
        ledger = DeliveryLedger()
        m1 = factory.generated("a", 0, 2, 0, 0)
        m2 = factory.generated("b", 1, 2, 0, 0)
        ledger.record_generated(m1)
        ledger.record_generated(m2)
        ledger.record_delivery(2, m1, 3)
        vec = ledger.snapshot()
        ledger.record_delivery(2, m2, 4)
        ledger.record_generated(factory.generated("c", 0, 1, 0, 5))
        ledger.restore(vec)
        assert ledger.snapshot() == vec
        assert ledger.outstanding_uids() == {m2.uid}
        assert ledger.generated_count == 2


class TestHigherLayerSnapshot:
    def test_round_trip_identity(self):
        hl = HigherLayer(3)
        hl.submit(0, "a", 2)
        hl.submit(0, "b", 1)
        hl.before_step(0)
        vec = hl.snapshot()
        hl.consume_request(0)
        hl.submit(1, "c", 0)
        hl.before_step(1)
        hl.restore(vec)
        assert hl.snapshot() == vec
        assert hl.next_destination(0) == 2
        assert hl.pending_count(0) == 2

    def test_restore_notifies_the_changed_processor_only(self):
        hl = HigherLayer(3)
        hl.submit(0, "a", 2)
        hl.submit(1, "b", 2)
        hl.before_step(0)
        vec = hl.snapshot()
        hl.consume_request(0)
        events = []
        hl.bind_notifier(lambda p, dest: events.append((p, dest)))
        hl.restore(vec)
        # Processor 0's handshake state changed; processor 1's did not.
        # No (p, None) events: restore never forces a mark-all-dirty.
        assert events and all(p == 0 for p, _ in events)
        assert all(dest is not None for _, dest in events)


class TestFactorySnapshot:
    def test_uid_counters_round_trip(self):
        factory = MessageFactory()
        factory.generated("a", 0, 1, 0, 0)
        vec = factory.snapshot()
        m_before = factory.generated("b", 0, 1, 0, 1)
        factory.restore(vec)
        m_after = factory.generated("b", 0, 1, 0, 1)
        assert m_before.uid == m_after.uid


class TestRoutingSnapshot:
    def test_static_routing_is_vacuous(self):
        net = line_network(3)
        routing = StaticRouting(net)
        assert routing.snapshot() == ()
        routing.restore(())             # must not raise

    def test_selfstab_round_trip_identity(self):
        net = ring_network(4)
        routing = SelfStabilizingBFSRouting(net)
        vec = routing.snapshot()
        routing.set_entry(2, 1, 3, 0)
        routing.restore(vec)
        assert routing.snapshot() == vec
        assert routing.is_correct()

    def test_restore_feeds_the_observer_channel(self):
        net = line_network(3)
        routing = SelfStabilizingBFSRouting(net)
        vec = routing.snapshot()
        routing.set_entry(2, 0, 2, 0)   # corruption: the hop moved
        events = []
        routing.add_observer(lambda p, d: events.append((p, d)))
        routing.restore(vec)
        assert events == [(0, 2)]

    def test_protocol_base_default_rejects_state(self):
        class Minimal(Protocol):
            name = "M"

            def enabled_actions(self, pid):
                return []

        proto = Minimal()
        assert proto.snapshot() == ()
        proto.restore(())               # vacuous restore is fine
        with pytest.raises(NotImplementedError):
            proto.restore(("state",))


class TestFullSystemRoundTrip:
    """snapshot → mutate (by executing real protocol moves) → restore →
    canon is the identity, for a system with garbage, live routing and
    traffic — every stateful component participates."""

    def _system(self):
        net = line_network(3)
        routing = SelfStabilizingBFSRouting(net)
        routing.set_entry(2, 1, 1, 0)
        proto = make_ssmfp(net, routing=routing)
        plant_invalid_messages(proto, seed=4, fill_fraction=0.4)
        proto.hl.submit(0, "m", 2)
        proto.hl.submit(2, "w", 0)
        return _System(proto, [routing])

    def test_restore_after_real_moves_is_identity(self):
        system = self._system()
        system.advance_env()
        vec = system.snapshot()
        key = system.canon(vec)
        # Execute real moves to scramble every layer, several steps deep.
        for _ in range(6):
            system._stack.dirty_after({})
            for pid in range(system.proto.net.n):
                actions = system._stack.enabled_actions(pid)
                if actions:
                    actions[0].execute()
                    break
            system.step += 1
            system.advance_env()
        assert system.canon() != key    # the scramble really moved state
        system.restore(vec)
        assert system.snapshot() == vec
        assert system.canon() == key

    def test_canon_needs_no_private_reach(self):
        # canon() is a pure projection of the state vector; the outbox part
        # comes from the public HigherLayer.outboxes() accessor.
        system = self._system()
        hl = system.proto.hl
        vec = system.snapshot()
        assert system.canon(vec)[2][0] == hl.outboxes()


def _walk_static():
    net = line_network(4)
    proto = SSMFP(
        net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger(strict=False)
    )
    for src, dest in ((0, 3), (3, 0), (1, 2), (0, 2)):
        proto.hl.submit(src, f"m{src}{dest}", dest)
    return _System(proto)


def _walk_live_routing():
    net = ring_network(4)
    routing = SelfStabilizingBFSRouting(net)
    for d, p, hop, dist in ((2, 0, 3, 2), (2, 1, 0, 3), (0, 2, 1, 1), (3, 1, 2, 3)):
        routing.set_entry(d, p, dist, hop)
    proto = make_ssmfp(net, routing=routing)
    for src, dest in ((0, 2), (1, 3), (2, 0)):
        proto.hl.submit(src, f"m{src}{dest}", dest)
    return _System(proto, [routing])


def _walk_ssmfp2():
    net = line_network(4)
    proto = make_ssmfp2(net)
    for src, dest in ((0, 3), (3, 0), (1, 3)):
        proto.hl.submit(src, f"m{src}{dest}", dest)
    return _System(proto)


def _walk_aged_fair():
    net = line_network(3)
    proto = make_ssmfp(
        net, choice_policy="aged_fair", choice_wait_cap=3, choice_wait_slowdown=1
    )
    for src, dest in ((0, 2), (1, 2), (2, 0), (0, 2)):
        proto.hl.submit(src, f"m{src}{dest}", dest)
    return _System(proto)


def _walk_garbage():
    net = ring_network(4)
    proto = make_ssmfp(net)
    plant_invalid_messages(proto, seed=11, fill_fraction=0.3)
    proto.queues.force(2, 1, [0, 2])      # scrambled choice queue
    proto.hl.submit(0, "m", 2)
    proto.hl.submit(3, "w", 1)
    return _System(proto)


def _labels(system):
    return {
        pid: [(a.rule, a.protocol, a.info) for a in actions]
        for pid, actions in system.enabled().items()
    }


def _unanchored(system):
    """A clone whose components have forgotten their anchors: its
    ``snapshot()`` reads the stores, not the shortcut."""
    clone = copy.deepcopy(system)
    for proto in clone.protocols:
        for part in (proto, *(getattr(proto, name, None) for name in
                              ("bufs", "queues", "hl", "ledger", "factory"))):
            if hasattr(part, "_anchor"):
                part._anchor = None
    return clone


class TestAnchoredRestoreOracle:
    """The anchor / journal / quiet-restore machinery against the full
    diff.  The walker is only ever observed through clones, so the checks
    never evaluate a guard on it — evaluations are moves of the walk."""

    def _check(self, make, walker):
        vec = walker.snapshot()
        probe = _unanchored(walker)
        assert probe.snapshot() == vec           # the shortcut is not stale
        fresh = make()
        fresh.restore(vec)
        assert fresh.snapshot() == vec
        assert _labels(probe) == _labels(fresh)
        for system in (probe, fresh):
            system.step += 1
            system.advance_env()
        assert probe.snapshot() == fresh.snapshot()

    def _home(self, make, walker, anchor):
        walker.restore(anchor)
        assert walker.snapshot() == anchor
        assert not walker.proto._resync
        self._check(make, walker)

    def _out_of_band(self, rng, walker):
        """One write that bypasses the mutators' notifications; returns
        False when the configuration offers none."""
        proto = walker.proto
        raised = sorted(proto.hl.request.raised())
        queued = sorted((d, p) for d, p, _ in proto.queues.iter_materialized())
        kind = rng.choice(["request", "force", "flag"])
        if kind == "request" and raised:
            proto.hl.request[rng.choice(raised)] = False
        elif kind == "force" and queued:
            d, p = rng.choice(queued)
            proto.queues.force(d, p, [])
        elif kind == "flag" and not proto.ledger._strict:
            proto.ledger._flag("planted")
        else:
            return False
        return True

    def _executed(self, make, vec, selection):
        """The child a fresh system reaches from ``vec`` by executing
        ``selection`` by hand — no anchor, no excursion."""
        fresh = make()
        fresh.restore(vec)
        enabled = fresh.enabled()
        for pid, index in selection.items():
            enabled[pid][index].execute()
        fresh.step += 1
        fresh.advance_env()
        return _unanchored(fresh).snapshot()

    def _selections(self, rng, enabled, count):
        """``count`` random daemon selections ``{pid: action index}``."""
        return [
            {pid: rng.randrange(len(enabled[pid]))
             for pid in rng.sample(sorted(enabled), rng.randint(1, len(enabled)))}
            for _ in range(count)
        ] if enabled else []

    @pytest.mark.parametrize(
        "make",
        [_walk_static, _walk_live_routing, _walk_ssmfp2, _walk_aged_fair,
         _walk_garbage],
        ids=["static", "live_routing", "ssmfp2", "aged_fair", "garbage"],
    )
    def test_random_walk_matches_full_diff(self, make):
        rng = random.Random(16)
        walker = make()
        walker.advance_env()
        anchor = walker.snapshot()
        pool = [anchor]
        masked_dirt_survived = children_evaluated = 0
        self._home(make, walker, anchor)
        for _ in range(60):
            move = rng.choice(["expand", "expand", "child", "jump", "home",
                               "evaluate", "out_of_band"])
            if move in ("expand", "child"):
                # The verifier's loop: evaluate once at the anchor, then one
                # excursion per selection through _System.successors.  The
                # walker stays where the last one left it.
                walker.restore(anchor)
                enabled = walker.enabled()
                count = rng.randint(1, 3) if move == "expand" else 1
                for selection, child, key, error in walker.successors(
                    anchor, enabled, self._selections(rng, enabled, count)
                ):
                    assert error is None
                    assert walker.snapshot() == child
                    assert self._executed(make, anchor, selection) == child
                    assert key == walker.canon(_unanchored(walker).snapshot())
                    masked_dirt_survived += bool(walker.proto._components.dirty)
                    pool.append(child)
                    if move == "child":
                        # Guards read where the excursion left, no restore.
                        fresh = make()
                        fresh.restore(child)
                        assert _labels(walker) == _labels(fresh)
                        children_evaluated += 1
                    else:
                        self._check(make, walker)
            elif move == "jump":
                anchor = rng.choice(pool)
                self._home(make, walker, anchor)
            elif move == "home":
                self._home(make, walker, anchor)
            elif move == "evaluate":
                walker.enabled()         # while away: the quiet path must fall back
                self._home(make, walker, anchor)
            elif self._out_of_band(rng, walker):
                assert _unanchored(walker).snapshot() == walker.snapshot()
                assert walker.snapshot() != anchor
                self._home(make, walker, anchor)
        assert children_evaluated
        if make is _walk_live_routing:
            # Forwarding components masked by enabled routing moves keep
            # their dirt across the quiet return to the anchor and through
            # the excursion that follows.
            assert masked_dirt_survived


def test_routing_move_ends_the_quiet_return():
    """Two vectors with the same buffers but different, locally consistent
    ``nextHop_0(2)``: R4 at processor 0 (erase once the next hop holds the
    copy) is enabled under one and not under the other.  Going from the
    first to the second must not take the quiet road home, which would
    drop the dirt the routing layer's restore just marked."""

    def make():
        net = ring_network(4)
        routing = SelfStabilizingBFSRouting(net)
        proto = make_ssmfp(net, routing=routing)
        proto.hl.submit(0, "m", 2)
        return _System(proto, [routing])

    system = make()
    system.advance_env()
    for _ in range(3):                  # R1, R2 at 0, then R3 at 1
        enabled = system.enabled()
        enabled[min(enabled)][0].execute()
        system.step += 1
        system.advance_env()
    via_1 = system.snapshot()
    assert [a.rule for a in system.enabled()[0]] == ["R4"]
    routing = system.protocols[0]
    routing.set_entry(2, 1, 2, routing.next_hop(1, 2))  # 1 looks far:
    routing.set_entry(2, 0, 2, 3)                       # 0 routes through 3
    system.step += 1
    system.advance_env()
    via_3 = system.snapshot()

    walker, fresh = make(), make()
    walker.restore(via_1)
    walker.enabled()
    walker.restore(via_1)
    walker.restore(via_3)
    fresh.restore(via_3)
    assert _labels(walker) == _labels(fresh)
    assert 0 not in _labels(walker)


def _retuple(vec):
    """An equal vector that shares no tuple with ``vec`` (leaves shared)."""
    return tuple(_retuple(x) if isinstance(x, tuple) else x for x in vec)


def test_an_excursion_that_moved_routing_is_undone_through_the_notifiers():
    """One selection: R1 at processor 0 in component 2, and an RTfix at
    processor 1 that moves ``nextHop_1(3)``.  The hop move ends the quiet
    return, and the generation marked nothing on the way out.  Restoring a
    vector equal to the child (but not the anchor) must still see
    component 2 at processor 0 as changed."""
    walker = _walk_live_routing()
    walker.advance_env()
    anchor = walker.snapshot()
    walker.restore(anchor)
    enabled = walker.enabled()
    generate, move_hop = enabled[0][0], enabled[1][1]
    assert (generate.rule, generate.dest) == ("R1", 2)
    assert (move_hop.rule, move_hop.dest) == ("RTfix", 3)
    ((_, child, _, error),) = walker.successors(anchor, enabled, [{0: 0, 1: 1}])
    assert error is None
    assert walker.proto._home_dirt is None    # the hop moved
    assert 0 not in walker.proto._components.dirty
    twin = _retuple(child)
    walker.restore(twin)
    fresh = _walk_live_routing()
    fresh.restore(twin)
    assert _labels(walker) == _labels(fresh)


def _clean_pair():
    net = line_network(3)
    proto = make_ssmfp(net)
    proto.hl.submit(0, "dup", 2)
    proto.hl.submit(0, "dup", 2)
    return proto


def _with_garbage():
    net = line_network(3)
    proto = make_ssmfp(net)
    plant_invalid_message(proto, 2, 1, "E", "g", last=1, color=0)
    plant_invalid_message(proto, 0, 1, "R", "g", last=0, color=1)
    proto.hl.submit(0, "m", 2)
    return proto


def _live_routing():
    net = line_network(3)
    routing = SelfStabilizingBFSRouting(net)
    routing.set_entry(2, 1, 1, 0)
    proto = make_ssmfp(net, routing=routing)
    proto.hl.submit(0, "m", 2)
    return proto, [routing]


def _literal_r5():
    net = line_network(3)
    proto = make_ssmfp(net, r5_literal=True)
    proto.hl.submit(0, "dup", 2)
    proto.hl.submit(0, "dup", 2)
    return proto


#: The X5 table's instances the four factories above do not already cover.
_X5 = {name: make for name, make, _expected in _instances()}


class TestEngineEquivalence:
    """The snapshot explorers are drop-in replacements: bit-identical
    exploration statistics and violations on the seed instances."""

    @pytest.mark.parametrize(
        "factory",
        [_clean_pair, _with_garbage, _live_routing, _literal_r5,
         _X5["fig3 net, crossing flows"], _X5["line(3), colors OFF (A1)"]],
        ids=["clean_pair", "garbage", "live_routing", "literal_r5",
             "fig3_crossing", "colors_off"],
    )
    def test_modelcheck_engines_agree(self, factory):
        caps = dict(max_states=200_000, max_selection_width=20_000)
        base = DeepcopyModelChecker(factory, **caps).run()
        snap = ModelChecker(factory, **caps).run()
        assert base.states == snap.states
        assert base.transitions == snap.transitions
        assert base.terminal_states == snap.terminal_states
        assert base.truncated == snap.truncated
        assert base.violations == snap.violations
