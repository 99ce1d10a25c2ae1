"""The served lists of ``ComponentDirtyCache`` and the silent-layer skip of
``PriorityStack``.

A processor's enabled list is served from the list served last time: a
clean poll returns that very list, a dirty one splices the re-evaluated
components into a copy, and ``retire`` splices its component out.  A list
once handed out is never written again — the scheduler's enabled map and
the verifier's expansion both hold lists across later writes.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.app.workload import uniform_workload
from repro.network.topologies import line_network, ring_network
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.sim.faults import RoutingFaultInjector
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.action import Action
from repro.statemodel.components import ComponentDirtyCache
from repro.statemodel.daemon import DistributedRandomDaemon
from repro.statemodel.protocol import Protocol

#: Processors and destinations of the model-based test.
P, DESTS = 3, 6


class _Model:
    """The configuration a cache serves: ``truth[(p, d)]`` is what
    evaluating component ``(p, d)`` answers now; every write is marked."""

    def __init__(self):
        self.truth = {}
        self.cache = ComponentDirtyCache()

    def evaluate(self, p, d):
        return list(self.truth.get((p, d), ()))

    def active(self, p):
        return list(range(DESTS))

    def poll(self, p):
        return self.cache.enabled_actions(p, self.evaluate, self.active)

    def expected(self, p):
        return [a for d in range(DESTS) for a in self.truth.get((p, d), ())]


def _actions(p, d, rules):
    return [Action(p, rule, "model", d, None, ()) for rule in rules]


_op = st.one_of(
    st.tuples(st.just("write"), st.integers(0, P - 1), st.integers(0, DESTS - 1),
              st.lists(st.sampled_from("abc"), max_size=3)),
    st.tuples(st.just("retire"), st.integers(0, P - 1), st.integers(0, DESTS - 1)),
    st.tuples(st.just("poll"), st.integers(0, P - 1)),
    st.tuples(st.just("invalidate"),),
)


class TestServedLists:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(_op, max_size=40))
    def test_a_served_list_is_the_ascending_concatenation(self, ops):
        model = _Model()
        held = []
        for op in ops:
            kind, *args = op
            if kind == "write":
                p, d, rules = args
                model.truth[p, d] = _actions(p, d, rules)
                model.cache.mark(p, d)
            elif kind == "retire":
                # A write known to leave nothing enabled at (p, d).
                p, d = args
                model.truth[p, d] = []
                model.cache.mark(p, d)
                model.cache.retire(p, d)
            elif kind == "poll":
                (p,) = args
                served = model.poll(p)
                assert served == model.expected(p)
                held.append((served, list(served)))
            else:
                model.cache.invalidate_all()
            # No list once handed out is ever written again.
            for served, copy in held:
                assert served == copy
        for p in range(P):
            assert model.poll(p) == model.expected(p)
            # With nothing dirty the same list comes back.
            again = model.poll(p)
            assert again == model.expected(p)
            if again:
                assert model.poll(p) is again
        for served, copy in held:
            assert served == copy

    def test_a_held_list_survives_writes_retire_and_re_polls(self):
        routing = SelfStabilizingBFSRouting(line_network(4))
        routing.set_entry(3, 1, 3, 0)   # 1 routes away from 3
        routing.set_entry(2, 1, 3, 0)   # and away from 2
        held = routing.enabled_actions(1)
        assert [(a.rule, a.dest) for a in held] == [("RTfix", 2), ("RTfix", 3)]
        frozen = list(held)
        assert routing.enabled_actions(1) is held   # a clean poll
        held[0].execute()                           # retires (1, 2)
        routing.set_entry(3, 2, 2, 3)               # marks (1, 3) again
        after = routing.enabled_actions(1)
        assert held == frozen
        assert [(a.rule, a.dest) for a in after] == [("RTfix", 3)]
        assert after is not held

    def test_a_clean_poll_evaluates_nothing(self):
        model = _Model()
        model.truth[0, 2] = _actions(0, 2, "a")
        first = model.poll(0)
        evals = model.cache.evals
        assert model.poll(0) is first
        assert model.cache.evals == evals
        # A dirty poll whose evaluation changes nothing copies nothing.
        model.cache.mark(0, 4)
        assert model.poll(0) is first
        assert model.cache.evals == evals + 1


def _silent_then_faulted():
    sim = build_simulation(
        ring_network(12),
        workload=uniform_workload(12, count=30, seed=5, spread_steps=60),
        daemon=DistributedRandomDaemon(seed=3),
        seed=4,
    )
    calls = []
    polled = sim.routing.enabled_actions
    sim.routing.enabled_actions = lambda pid: calls.append(pid) or polled(pid)
    injector = RoutingFaultInjector(
        sim.routing, period=20, fraction=0.3, seed=8, stop_after=50
    )
    result = sim.run(20_000, halt=delivered_and_drained,
                     before_step=injector.before_step)
    assert injector.injections == [20, 40]
    return calls, (result.steps, result.rounds, result.rule_counts,
                   sim.sim.guard_evals)


class TestSilentLayer:
    """Routing at its fixpoint, with no row written, is not polled; a
    processor it is silent at counts as polled, so once a fault writes
    rows the evaluations are those of a stack that polls every time."""

    def test_a_silent_routing_layer_is_not_polled(self, monkeypatch):
        skipping_calls, skipped = _silent_then_faulted()
        monkeypatch.setattr(SelfStabilizingBFSRouting, "silent_at",
                            Protocol.silent_at)
        polling_calls, polled = _silent_then_faulted()
        assert skipped == polled
        assert 0 < len(skipping_calls) < len(polling_calls)

    def test_silent_means_no_dirt_no_entry_no_row(self):
        routing = SelfStabilizingBFSRouting(line_network(3))
        assert routing.silent_at(0)
        assert 0 in routing._components.valid
        routing.set_entry(2, 1, 1, 2)   # a write that changes nothing
        assert not routing.silent_at(1)
        assert routing.enabled_actions(1) == []
        assert not routing.silent_at(1)  # a row is materialized
