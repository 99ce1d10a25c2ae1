"""Directed tests of ``ForwardingProtocol``'s notification sinks: which
``(processor, destination)`` components one write dirties.

The rule under test is reader-precise dirt: a write at ``p`` in component
``d`` marks ``(p, d)`` and component ``d`` of those neighbors that are
*live* — holding ``bufR``, ``bufE`` or a queued requester in ``d`` — because
no rule is enabled at a component that is not (the liveness line of the
family contract).  What must stay unfiltered is checked too: a processor's
own writes, and the queue re-sync set of a moved hop whose mover offers.
The routing layer's own rule — an executed repair retires its component —
is pinned here as well.
"""

import pytest

from repro.network.topologies import grid_network, line_network
from repro.routing.corruption import corrupt_random
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.statemodel.daemon import SynchronousDaemon

from tests.helpers import make_ssmfp, make_ssmfp2
from tests.reference_engines import CheckedSimulator

#: line 0 - 1 - 2; every write below lands in component D.
D = 2


def _tracking(proto):
    """The component cache, nothing marked yet: the sinks mark from
    construction on, and a fresh protocol has written nothing."""
    assert proto.dirty_after({}) == set()
    return proto._components


def _garbage(proto, last, payload="g"):
    return proto.factory.invalid(payload, last, 0, D)


def _make_live(proto, q, clause):
    if clause == "bufR":
        proto.bufs.set_r(D, q, _garbage(proto, q))
    elif clause == "bufE":
        proto.bufs.set_e(D, q, _garbage(proto, q))
    else:
        proto.queues.force(D, q, [1])


@pytest.fixture(params=(make_ssmfp, make_ssmfp2), ids=("ssmfp", "ssmfp2"))
def proto(request):
    return request.param(line_network(3))


class TestBufferWriteSink:
    def test_neighbors_that_are_not_live_stay_clean(self, proto):
        cache = _tracking(proto)
        proto.bufs.set_r(D, 1, _garbage(proto, 1))
        assert cache.pending() == {1: {D}}

    @pytest.mark.parametrize("clause", ("bufR", "bufE", "head"))
    def test_each_liveness_clause_marks_the_neighbor(self, proto, clause):
        cache = _tracking(proto)
        _make_live(proto, 0, clause)
        cache.reset({})
        proto.bufs.set_r(D, 1, _garbage(proto, 1))
        assert cache.pending() == {0: {D}, 1: {D}}

    def test_liveness_is_per_component(self, proto):
        cache = _tracking(proto)
        proto.bufs.set_r(0, 0, proto.factory.invalid("g", 0, 0, 0))
        cache.reset({})
        proto.bufs.set_r(D, 1, _garbage(proto, 1))
        assert cache.pending() == {1: {D}}

    def test_erasing_writer_marks_itself(self, proto):
        cache = _tracking(proto)
        proto.bufs.set_r(D, 1, _garbage(proto, 1))
        cache.reset({})
        proto.bufs.set_r(D, 1, None)  # 1 is not live any more once it lands
        assert cache.pending() == {1: {D}}

    def test_neighbor_made_live_in_the_same_step_is_marked_by_its_own_write(self):
        # One message 0 -> 2 under the synchronous daemon: when node p
        # copies it (R3), p held nothing while its upstream neighbor wrote,
        # so only p's own buffer write can have dirtied (p, D).
        net = line_network(3)
        proto = make_ssmfp(net)
        proto.hl.submit(0, "m", D)
        sim = CheckedSimulator(net.n, [proto], SynchronousDaemon())
        copies = 0
        while True:
            report = sim.step()
            if report.terminal:
                break
            for pid, action in report.executed.items():
                if action.rule == "R3":
                    copies += 1
                    assert D in proto._components.dirty[pid]
        assert copies == 2 and proto.ledger.all_valid_delivered()

    def test_restore_emptying_q_then_rewriting_its_neighbor_leaves_q_dirty(self, proto):
        cache = _tracking(proto)
        proto.bufs.set_r(D, 1, _garbage(proto, 0))
        proto.bufs.set_e(D, 0, _garbage(proto, 0))
        cache.reset({})
        # The diff visits plane R before plane E: bufR_1 is emptied, then
        # bufE_0 rewritten next to a node 1 that is no longer live.  Node
        # 1's own erase is what keeps (1, D) dirty.
        proto.bufs.restore(((D, 0, "E", _garbage(proto, 0, "new")),))
        assert proto.bufs.get_r(D, 1) is None
        assert cache.pending() == {0: {D}, 1: {D}}


def _offer(proto, q):
    """``q`` offers a message in component ``D``: an owned one on the
    protocol's offer plane."""
    if proto.offer_kind == "E":
        proto.bufs.set_e(D, q, _garbage(proto, q))
    else:
        proto.bufs.set_r(D, q, _garbage(proto, q))
    assert proto.offered_message(D, q) is not None


def _move_hop(proto, p):
    """Report ``nextHop_p(D)`` moved, from a clean cache and re-sync set."""
    proto._components.reset({})
    proto._resync.clear()
    proto.routing._notify_entry(p, D)


class TestRoutingChangeSink:
    """A moved hop marks the live processors of the mover's closed
    neighborhood, the mover included, and re-syncs that neighborhood's
    queues only while the mover offers a message in the component."""

    def test_a_silent_mover_marks_nothing(self, proto):
        cache = _tracking(proto)
        _make_live(proto, 2, "bufR")
        _move_hop(proto, 1)
        assert cache.pending() == {2: {D}}
        assert proto._resync == {}

    def test_a_live_mover_offering_nothing(self, proto):
        # bufR_1(D) holds a copy 1 does not own (last = 0): SSMFP offers
        # from bufE only, SSMFP2 only owned messages.
        cache = _tracking(proto)
        proto.bufs.set_r(D, 1, _garbage(proto, 0))
        assert proto.offered_message(D, 1) is None
        _move_hop(proto, 1)
        assert cache.pending() == {1: {D}}
        assert proto._resync == {}

    @pytest.mark.parametrize("clause", ("bufR", "bufE", "head"))
    def test_an_offerer_resyncs_its_nbhd(self, proto, clause):
        # Node 0 is live, node 2 is not; re-syncing node 2's queue anyway
        # is how a hop that moved toward it makes it live.
        cache = _tracking(proto)
        _offer(proto, 1)
        _make_live(proto, 0, clause)
        _move_hop(proto, 1)
        assert cache.pending() == {0: {D}, 1: {D}}
        assert proto._resync == {D: {0, 1, 2}}


def _served(routing):
    """Every processor's enabled list, as the engine serves them before a
    selection (the dirt is consumed)."""
    served = {p: routing.enabled_actions(p) for p in routing.network.processors()}
    assert routing._components.pending() == {}
    return served


class TestRepairRetiresItsComponent:
    """An executed RTfix / RTself leaves its own guard false unless a
    neighbor's entry moved in the same step, and that neighbor's write
    marks the component anyway: so the repair marks only the neighbors
    that read what it wrote (none when only the hop moves), drops its own
    entry unevaluated and has its processor served again."""

    @pytest.mark.parametrize("rule, p, entry, readers", (
        ("RTfix", 1, (2, 0), (0, 2)),  # 1 routes away from 2 at distance 2
        ("RTself", D, (0, 1), ()),     # the destination's own hop corrupted
    ))
    def test_alone_the_repair_is_not_evaluated_again(self, rule, p, entry, readers):
        routing = SelfStabilizingBFSRouting(line_network(3))
        routing.set_entry(D, p, *entry)
        served = _served(routing)
        assert {q: [a.rule for a in acts] for q, acts in served.items() if acts} == {p: [rule]}
        served[p][0].execute()
        cache = routing._components
        assert cache.pending() == {p: set(), **{q: {D} for q in readers}}
        assert p in routing.dirty_after({})
        assert all(a.dest != D for a in cache.served.get(p, ()))
        evals = routing.component_evals
        assert routing.enabled_actions(p) == []
        assert routing.component_evals == evals
        assert routing.is_correct()

    @pytest.mark.parametrize("order", ((1, 0), (0, 1)), ids=("mine-first", "theirs-first"))
    def test_a_neighbor_repair_in_the_same_selection_re_evaluates(self, order):
        routing = SelfStabilizingBFSRouting(line_network(3))
        routing.set_entry(D, 1, 2, 0)
        routing.set_entry(D, 0, 1, 1)
        served = _served(routing)
        assert [a.rule for a in served[0]] == [a.rule for a in served[1]] == ["RTfix"]
        for q in order:
            served[q][0].execute()
        assert routing._components.pending()[1] == {D}
        evals = routing.component_evals
        routing.enabled_actions(1)
        assert routing.component_evals == evals + 1

    def test_a_retiring_run_matches_a_fresh_scan(self):
        # Every entry corrupted, repaired under the synchronous daemon (all
        # enabled processors at once) with the cache checked against a
        # fresh scan at every step.
        net = grid_network(3, 3)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_random(routing, seed=4, fraction=1.0)
        sim = CheckedSimulator(net.n, [routing], SynchronousDaemon())
        sim.run(500)
        assert routing.is_correct()


class TestRoutingEntryWrite:
    """Neighbors' guards read ``dist``, never ``hop``: a write that moves
    ``dist_p(d)`` marks component ``d`` of ``N_p ∪ {p}``, one that moves
    only the hop marks ``(p, d)`` alone, and the ``next_hop`` observers
    hear a moved hop either way."""

    @pytest.mark.parametrize("entry, marked, heard", (
        ((2, 0), {0: {D}, 1: {D}, 2: {D}}, [(1, D)]),  # both move
        ((2, 2), {0: {D}, 1: {D}, 2: {D}}, []),        # dist alone
        ((1, 0), {1: {D}}, [(1, D)]),                  # hop alone
        ((1, 2), {1: {D}}, []),                        # neither
    ))
    def test_the_write_marks_its_readers(self, entry, marked, heard):
        routing = SelfStabilizingBFSRouting(line_network(3))
        moves = []
        routing.add_observer(lambda p, d: moves.append((p, d)))
        routing.set_entry(D, 1, *entry)
        assert routing._components.pending() == marked
        assert moves == heard
        assert (routing.dist[D][1], routing.hop[D][1]) == entry


class TestOwnVariableSinks:
    """Queue and request changes concern the processor's own guards only,
    and mark it whether or not it is live."""

    def test_queue_event(self, proto):
        cache = _tracking(proto)
        proto.queues.force(D, 0, [1])
        assert cache.pending() == {0: {D}}
        assert proto._resync == {D: {0}}

    def test_request_raise(self, proto):
        cache = _tracking(proto)
        proto.hl.submit(0, "m", D)
        proto.hl.before_step(0)
        assert proto.hl.request[0]
        assert cache.pending() == {0: {D}}


class TestEvaluationCount:
    """``component_evals`` counts one evaluation per component examined:
    every active destination on a rebuild, the dirty ones on a reconcile,
    none when nothing is dirty."""

    def test_rebuild_then_reconcile(self, proto):
        _tracking(proto)
        proto.bufs.set_r(D, 1, _garbage(proto, 1))
        proto.bufs.set_r(0, 1, proto.factory.invalid("g", 1, 0, 0))
        start = proto.component_evals
        proto.enabled_actions(1)
        assert proto.component_evals == start + 2
        proto.bufs.set_r(D, 1, _garbage(proto, 1, "h"))
        proto.enabled_actions(1)
        assert proto.component_evals == start + 3
        proto.enabled_actions(1)
        assert proto.component_evals == start + 3

    def test_a_read_where_an_excursion_left_rebuilds_from_the_active_set(self, proto):
        # The excursion's write marks nothing, so the read drops the cache
        # (dirty_after answers None) and processor 1 is rebuilt from every
        # active destination — both components, not the recorded dirt.
        proto.bufs.set_r(D, 1, _garbage(proto, 0))
        assert [a.dest for a in proto.enabled_actions(1)] == [D]
        proto.begin_excursion()
        proto.bufs.set_r(0, 1, proto.factory.invalid("g", 0, 0, 0))
        assert proto._components.pending() == {}
        assert proto.dirty_after({}) is None
        start = proto.component_evals
        assert [a.dest for a in proto.enabled_actions(1)] == [0, D]
        assert proto.component_evals == start + 2
