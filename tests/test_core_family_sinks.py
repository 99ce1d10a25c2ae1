"""Directed tests of ``ForwardingProtocol``'s notification sinks: which
``(processor, destination)`` components one write dirties.

The rule under test is reader-precise dirt: a write at ``p`` in component
``d`` marks ``(p, d)`` and component ``d`` of those neighbors that are
*live* — holding ``bufR``, ``bufE`` or a queued requester in ``d`` — because
no rule is enabled at a component that is not (the liveness line of the
family contract).  What must stay unfiltered is checked too: a processor's
own writes and the queue re-sync set.
"""

import pytest

from repro.network.topologies import line_network
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


class TestRoutingChangeSink:
    def test_marks_are_filtered_but_the_resync_set_is_not(self, proto):
        cache = _tracking(proto)
        _make_live(proto, 2, "bufR")
        cache.reset({})
        proto._resync.clear()
        proto.routing._notify_entry(1, D)
        assert cache.pending() == {1: {D}, 2: {D}}
        # Node 0 is not live; re-syncing its queue is how a hop that moved
        # toward it makes it live.
        assert proto._resync == {D: {0, 1, 2}}


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
