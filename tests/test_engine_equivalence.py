"""Property-style equivalence: incremental engine vs classic full scan.

The incremental enabled-set engine (dirty-set guard caching, incremental
queue reconciliation, ``next_hop`` caching) must be *observationally
identical* to the classic engine that re-evaluates every guard of every
processor each step.  The classic engine
(``tests/reference_engines.py::FullScanSimulator``) reconciles every queue
of every active component each step and re-derives every guard from the
configuration, sharing no cache and no serving path with the product engine
— which makes side-by-side stepping an exact oracle.

The suite drives both engines in lock-step over randomized scenarios —
topology (ring / grid / random connected / random tree), daemon variant,
routing corruption, buffer garbage, scrambled choice queues, choice
policy — and asserts identical step-by-step traces (executed actions with
full info, enabled counts, round completions, terminality) plus identical
end states (deliveries, ledger, rule counts, rounds).  Well over 50
randomized runs execute across the parametrizations.
"""

import copy
import random

import pytest

from repro.app.workload import uniform_workload
from repro.core.corruption import plant_invalid_messages, scramble_queues
from repro.core.family import ForwardingProtocol
from repro.errors import InvariantViolation
from repro.network.topologies import (
    grid_network,
    line_network,
    random_connected_network,
    random_tree_network,
    ring_network,
)
from repro.routing.corruption import corrupt_random
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.routing.static import StaticRouting
from repro.scenario import ScenarioSpec, run_sim_scenario
from repro.sim.faults import RoutingFaultInjector
from repro.sim.runner import Simulation, build_simulation, delivered_and_drained
from repro.statemodel.daemon import (
    CentralRandomDaemon,
    DistributedRandomDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
)
from repro.statemodel.scheduler import Simulator

from tests.helpers import LocallyCentralRandomDaemon, make_ssmfp, make_ssmfp2
from tests.reference_engines import CheckedSimulator, FullScanSimulator, use_engine

MAX_STEPS = 4_000

DAEMONS = ("sync", "central", "distributed", "locally_central", "round_robin")
POLICIES = ("fifo", "fixed", "aged", "aged_fair")

#: Every ablation knob the protocol exposes (docs/engine.md requires the
#: component-granular engine to be exact under all of them).
ABLATION_KNOBS = (
    {"enable_colors": False},
    {"enable_r5": False},
    {"r5_literal": True},
    {"enable_colors": False, "enable_r5": False},
)


def _make_net(rng: random.Random):
    kind = rng.choice(("ring", "grid", "random", "tree"))
    if kind == "ring":
        return ring_network(rng.randrange(4, 17))
    if kind == "grid":
        return grid_network(rng.randrange(2, 5), rng.randrange(2, 5))
    if kind == "random":
        n = rng.randrange(5, 15)
        return random_connected_network(n, extra_edges=rng.randrange(0, n), seed=rng.randrange(10_000))
    return random_tree_network(rng.randrange(4, 15), seed=rng.randrange(10_000))


def _make_daemon(name: str, net, seed: int):
    if name == "sync":
        return SynchronousDaemon()
    if name == "central":
        return CentralRandomDaemon(seed=seed)
    if name == "distributed":
        return DistributedRandomDaemon(seed=seed)
    if name == "locally_central":
        return LocallyCentralRandomDaemon(
            seed=seed, neighbors=[net.neighbors(p) for p in net.processors()]
        )
    if name == "round_robin":
        return RoundRobinDaemon()
    raise AssertionError(name)


def _make_scenario(seed: int, daemon_name: str, policy: str, *, full_scan: bool,
                   debug_check: bool = False, options=None,
                   adversarial: bool = False, protocol: str = "ssmfp") -> Simulation:
    rng = random.Random(seed)
    net = _make_net(rng)
    n = net.n
    if adversarial:
        # Force the full adversarial initial state instead of sampling it:
        # corrupted routing, planted garbage and scrambled queues together.
        corruption = {"kind": "random", "fraction": 1.0, "seed": seed + 1}
        garbage = {"seed": seed + 3, "fraction": 0.6}
        scramble = True
    else:
        corruption = rng.choice(
            (
                None,
                {"kind": "random", "fraction": rng.choice((0.3, 1.0)), "seed": seed + 1},
                {"kind": "worst", "seed": seed + 2},
            )
        )
        garbage = rng.choice((None, {"seed": seed + 3, "fraction": rng.choice((0.2, 0.6))}))
        scramble = rng.random() < 0.5
    protocol_options = {"choice_policy": policy}
    if options:
        protocol_options.update(options)
    sim = build_simulation(
        net,
        workload=uniform_workload(
            n,
            count=rng.randrange(2, 3 * n),
            seed=seed + 4,
            spread_steps=rng.choice((0, 5 * n)),
        ),
        daemon=_make_daemon(daemon_name, net, seed + 5),
        seed=seed + 6,
        routing_corruption=corruption,
        garbage=garbage,
        scramble_choice_queues=scramble,
        protocol=protocol,
        protocol_options=protocol_options,
    )
    if full_scan:
        use_engine(sim, FullScanSimulator)
    elif debug_check:
        use_engine(sim, CheckedSimulator)
    return sim


def _signature(report):
    return (
        report.step,
        {
            pid: (a.rule, a.protocol, tuple(sorted(a.info.items())))
            for pid, a in report.executed.items()
        },
        report.enabled_count,
        report.round_completed,
        report.terminal,
    )


def _end_state(sim: Simulation):
    return {
        "delivered": [
            (p, m.uid, m.payload, step) for p, m, step in sim.hl.delivered
        ],
        "valid_delivered": sim.ledger.valid_delivered_count,
        "outstanding": sorted(sim.ledger.outstanding_uids()),
        "rule_counts": sim.sim.rule_counts,
        "rounds": sim.sim.round_count,
        "steps": sim.sim.step_count,
        "occupied": sim.forwarding.bufs.total_occupied(),
    }


def _run_side_by_side(seed: int, daemon_name: str, policy: str = "fifo", *,
                      options=None, adversarial: bool = False,
                      debug_check: bool = False, protocol: str = "ssmfp",
                      max_steps: int = MAX_STEPS) -> None:
    inc = _make_scenario(seed, daemon_name, policy, full_scan=False,
                         options=options, adversarial=adversarial,
                         debug_check=debug_check, protocol=protocol)
    full = _make_scenario(seed, daemon_name, policy, full_scan=True,
                          options=options, adversarial=adversarial,
                          protocol=protocol)
    _lockstep(inc, full, max_steps, f"seed={seed}, daemon={daemon_name}, "
              f"policy={policy}, options={options}")


def _lockstep(inc: Simulation, full: Simulation, max_steps: int, context: str) -> None:
    """Step the product engine and the full-scan oracle together: equal
    step traces, equal end states, no more guard evaluations."""
    for _ in range(max_steps):
        ra = inc.step()
        rb = full.step()
        assert _signature(ra) == _signature(rb), (
            f"step trace diverged at step {ra.step} ({context})"
        )
        if delivered_and_drained(inc) and ra.terminal:
            break
    assert _end_state(inc) == _end_state(full)
    # The incremental engine must actually skip work somewhere: over a whole
    # run it can never evaluate more guards than the classic engine.
    assert inc.sim.guard_evals <= full.sim.guard_evals


class TestEngineEquivalence:
    @pytest.mark.parametrize("daemon_name", DAEMONS)
    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_runs_match_full_scan(self, daemon_name, seed):
        # 5 daemons x 8 seeds = 40 randomized scenarios.
        _run_side_by_side(seed * 1_000 + hash(daemon_name) % 97, daemon_name)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("seed", range(3))
    def test_choice_policies_match_full_scan(self, policy, seed):
        # 4 policies x 3 seeds = 12 more scenarios (aged_fair exercises the
        # per-step reconciliation path).
        _run_side_by_side(seed * 777 + 13, "distributed", policy)

    @pytest.mark.parametrize("knobs", ABLATION_KNOBS)
    @pytest.mark.parametrize("seed", range(3))
    def test_ablation_knobs_match_full_scan(self, knobs, seed):
        # 4 knob combinations x 3 seeds = 12 scenarios: the component caches
        # must be exact with colors off, R5 off and the literal R5 — each
        # changes which guards exist, none changes what a guard reads.
        _run_side_by_side(seed * 991 + 57, "distributed", options=knobs)

    @pytest.mark.parametrize("policy", ("fixed", "aged_fair"))
    @pytest.mark.parametrize("knobs", ABLATION_KNOBS)
    def test_adversarial_ablations_debug_checked(self, policy, knobs):
        # Forced worst-case initial state — fully corrupted routing, planted
        # garbage AND scrambled queues at once — across ablation knobs and
        # the non-default policies, with the per-step cache-vs-fresh-scan
        # cross-check enabled on the incremental side.  Bounded steps:
        # fixed may legitimately never terminate (that is its point).
        seed = {"fixed": 4259, "aged_fair": 4276}[policy]
        _run_side_by_side(seed, "distributed", policy, options=knobs,
                          adversarial=True, debug_check=True, max_steps=900)

    @pytest.mark.parametrize("protocol", ("ssmfp", "ssmfp2"))
    @pytest.mark.parametrize("policy", ("fifo", "aged_fair"))
    @pytest.mark.parametrize("seed", [0])
    def test_routing_made_liveness_debug_checked(self, protocol, policy, seed):
        # The start states where a routing move, not a buffer write, is what
        # makes a neighbor live: fully corrupted SelfStabilizingBFSRouting
        # on the PriorityStack, planted garbage and scrambled queues, for
        # both rule sets and for the policy that re-syncs every step — the
        # mark-time liveness filter judged by both oracles at once.  Seeds
        # 1 and 2 kill no sink mutant that a cheaper test here does not
        # (tools/mutants/repro.core.family.jsonl).
        _run_side_by_side(9_100 + 37 * seed, "distributed", policy,
                          adversarial=True, debug_check=True,
                          protocol=protocol, max_steps=1_500)

    @pytest.mark.parametrize("seed", range(6))
    def test_debug_check_mode_is_silent(self, seed):
        # CheckedSimulator compares the cache with a fresh full scan after
        # every evaluation and raises InvariantViolation on any divergence.
        sim = _make_scenario(
            seed * 31 + 7, "distributed", "fifo", full_scan=False, debug_check=True
        )
        for _ in range(600):
            report = sim.step()
            if report.terminal and delivered_and_drained(sim):
                break

    @pytest.mark.parametrize("topology", ("ring", "grid"))
    @pytest.mark.parametrize("seed", range(5))
    def test_churn_matches_full_scan(self, topology, seed):
        # The routing-repair regime of the churn pins and the sim-churn
        # bench workload, small: 30 % of the tables corrupted, repaired
        # while traffic flows — executed repairs retire their own
        # components and moved hops re-sync only under offering movers.
        def build(full_scan):
            net = ring_network(24) if topology == "ring" else grid_network(5, 5)
            sim = build_simulation(
                net,
                workload=uniform_workload(net.n, count=24, seed=seed, spread_steps=120),
                daemon=DistributedRandomDaemon(seed=seed + 1),
                routing_corruption={"kind": "random", "fraction": 0.3, "seed": seed + 2},
                seed=seed + 3,
            )
            if full_scan:
                use_engine(sim, FullScanSimulator)
            return sim

        inc = build(False)
        _lockstep(inc, build(True), MAX_STEPS, f"{topology} churn, seed={seed}")
        assert inc.sim.rule_counts["RTfix"] > 0

    def test_incremental_is_default(self):
        sim = build_simulation(ring_network(6))
        assert type(sim.sim) is Simulator
        sim.step()
        # Both layers serve every processor's guards from their component
        # caches, built by the first evaluation.
        everyone = set(range(6))
        assert sim.forwarding._components.valid == everyone
        assert sim.routing._components.valid == everyone

    def test_guard_evals_drop_on_trickle_traffic(self):
        # The headline claim: sparse traffic on a converged network touches
        # few processors, so the incremental engine evaluates far fewer
        # guards than n per step.
        net = ring_network(32)
        results = {}
        for full_scan in (False, True):
            sim = build_simulation(
                net,
                workload=uniform_workload(32, count=20, seed=3, spread_steps=400),
                daemon=DistributedRandomDaemon(seed=1),
                seed=2,
            )
            if full_scan:
                use_engine(sim, FullScanSimulator)
            sim.run(50_000, halt=delivered_and_drained)
            results[full_scan] = sim.sim.guard_evals
        assert results[True] >= 3 * results[False]


class TestRoutingFaultsAfterStepZero:
    """Routing corrupted *mid-run*, once both layers serve guards from their
    caches: every faulted entry reaches them through ``set_entry``, and the
    product engine must still match the oracles step for step."""

    ENGINES = (CheckedSimulator, FullScanSimulator)

    @staticmethod
    def _outcome(simulation):
        return (simulation.sim.step_count, simulation.sim.round_count,
                simulation.sim.rule_counts, simulation.ledger.valid_delivered_count)

    def _injected(self, engine_cls):
        sim = build_simulation(
            ring_network(12),
            workload=uniform_workload(12, count=30, seed=5, spread_steps=60),
            daemon=DistributedRandomDaemon(seed=3),
            seed=4,
            routing_corruption={"kind": "random", "fraction": 0.3, "seed": 2},
        )
        use_engine(sim, engine_cls)
        injector = RoutingFaultInjector(
            sim.routing, period=15, fraction=0.3, seed=8, stop_after=100
        )
        sim.run(20_000, halt=delivered_and_drained,
                before_step=injector.before_step)
        assert injector.injections == [15, 30, 45, 60, 75, 90]
        return self._outcome(sim)

    def test_fault_injector_run_matches_the_oracles(self):
        checked, full = (self._injected(engine) for engine in self.ENGINES)
        assert checked == full
        assert checked[3] == 30

    def _scenario(self, engine_cls, monkeypatch):
        spec = ScenarioSpec.from_dict({
            "name": "mid-run-routing-faults",
            "target": "simulate",
            "seed": 21,
            "topology": {"name": "grid", "kwargs": {"rows": 3, "cols": 4}},
            "workload": {"name": "uniform", "kwargs": {"count": 40}},
            "clock": {"sim_steps_per_unit": 20},
            "schedule": [
                {"at": 0.5, "until": 2.5, "action": "corrupt_routing",
                 "fraction": 0.4, "period": 1.0},
                {"at": 1.0, "until": 3.0, "action": "link_flap",
                 "period": 0.5, "down": 0.25},
                {"at": 3.0, "until": 4.0, "action": "partition",
                 "edges": [[1, 2], [5, 6], [9, 10]]},
            ],
            "sim": {"routing": {"mode": "selfstab"}},
        })
        build = ScenarioSpec.build_simulation
        monkeypatch.setattr(
            ScenarioSpec, "build_simulation",
            lambda self, **kw: use_engine(build(self, **kw), engine_cls),
        )
        result = run_sim_scenario(spec)
        assert result.ok, result.failures
        hits = {}
        for event in result.fault_events:
            assert event["step"] > 0
            hits[event["action"]] = hits.get(event["action"], 0) + event["entries_hit"]
        assert set(hits) == {"corrupt_routing", "link_flap", "partition"}
        assert all(hits.values())
        metrics = result.metrics
        return (metrics["steps"], metrics["rounds"], metrics["rule_counts"],
                metrics["delivered"])

    def test_scenario_faults_match_the_oracles(self, monkeypatch):
        checked, full = (self._scenario(engine, monkeypatch)
                         for engine in self.ENGINES)
        assert checked == full

    def test_a_mid_run_corruption_keeps_the_caches(self):
        # The faulted entries are marked one by one: neither layer drops
        # its cache and rebuilds.
        sim = build_simulation(ring_network(8), seed=1)
        sim.step()
        hit = corrupt_random(sim.routing, seed=3, fraction=0.5)
        assert hit and not sim.routing.is_correct()
        everyone = set(range(8))
        assert sim.routing._components.valid == everyone
        assert sim.forwarding._components.valid == everyone
        assert sim.routing._components.dirty
        assert sim.sim._stack.dirty_after({}) is not None


class TestFirstEnvironmentPhase:
    """The sinks mark from construction on, so the first ``before_step``
    re-syncs only the queues they recorded — no sweep — and must leave
    every queue as a full reconcile would: scrambled queues report
    ``"mutate"``, offer-plane garbage reports through the buffer sink,
    routing corrupted after the garbage through the routing observer,
    raised requests through the request sink.  Without the scramble, which
    records every queue, each of the other three is needed."""

    @pytest.mark.parametrize("scramble", (False, True), ids=("plain", "scrambled"))
    @pytest.mark.parametrize("make", (make_ssmfp, make_ssmfp2),
                             ids=("ssmfp", "ssmfp2"))
    @pytest.mark.parametrize("seed", range(2))
    def test_recorded_resync_equals_a_full_reconcile(self, make, scramble, seed):
        rng = random.Random(seed)
        net = grid_network(3, 4)
        routing = SelfStabilizingBFSRouting(net)
        proto = make(net, routing=routing)
        plant_invalid_messages(proto, seed=seed, fill_fraction=0.3)
        corrupt_random(routing, seed=seed, fraction=0.5)
        if scramble:
            scramble_queues(proto, seed=seed)
        for _ in range(4):
            src, dest = rng.sample(range(net.n), 2)
            proto.hl.submit(src, "m", dest)
        reference = copy.deepcopy(proto)
        proto.before_step(0)
        reference.hl.before_step(0)
        reference._full_reconcile()
        active = reference.active_destinations()
        assert active == proto.active_destinations()
        expected = [row for row in reference.queues.sorted_states()
                    if row[0] in active]
        assert expected  # the sweep had queues to fill
        # Scrambled queues of inactive components are cleared, not kept.
        assert proto.queues.sorted_states() == expected
        assert not proto._resync


class _RewritableRouting(StaticRouting):
    """Correct tables plus overrides.  ``notifies`` selects whether a rewrite
    honours the :class:`RoutingService` contract (report every mutation)."""

    notifies = True

    def __init__(self, net):
        super().__init__(net)
        self._overrides = {}

    def rewrite(self, p, d, q):
        self._overrides[(p, d)] = q
        if self.notifies:
            self._notify_entry(p, d)

    def next_hop(self, p, d):
        return self._overrides.get((p, d), super().next_hop(p, d))


class _SilentRouting(_RewritableRouting):
    notifies = False


class TestCrossCheckHasTeeth:
    """The cross-check re-derives guards from the configuration alone, so it
    catches exactly what the product's caches cannot see: a routing provider
    that breaks the now-mandatory notification contract."""

    def _misroute_in_flight(self, routing_cls):
        # line 0-1-2, one message 0 -> 2; once node 2 has copied it from
        # node 1 (whose erase guard reads nextHop_1(2), cached by then),
        # node 1's entry is rewritten to point back at 0.
        net = line_network(3)
        routing = routing_cls(net)
        proto = make_ssmfp(net, routing=routing)
        proto.hl.submit(0, "m", 2)
        sim = CheckedSimulator(net.n, [proto], SynchronousDaemon())
        while proto.bufs.get_r(2, 2) is None:
            assert not sim.step().terminal
        routing.rewrite(1, 2, 0)
        return sim

    def test_silent_rewrite_is_caught_with_a_per_processor_diff(self):
        sim = self._misroute_in_flight(_SilentRouting)
        with pytest.raises(InvariantViolation) as excinfo:
            sim.step()
        message = str(excinfo.value)
        assert "{pid: (cached, fresh)}" in message
        # The cached hop keeps node 1's erase enabled; re-derived from the
        # tables, the copy sits at the wrong neighbor and nothing is enabled.
        assert "1: ([('R4'" in message and "], [])" in message

    def test_notifying_twin_passes(self):
        sim = self._misroute_in_flight(_RewritableRouting)
        for _ in range(50):
            sim.step()


def _live(proto, q, d):
    """The liveness line of the ForwardingProtocol contract, spelled with
    the public reads."""
    return (
        proto.bufs.get_r(d, q) is not None
        or proto.bufs.get_e(d, q) is not None
        or proto.queues.head(d, q) is not None
    )


def _mark_readers_without(dropped):
    """``ForwardingProtocol._mark_readers`` rewritten by hand with one
    clause of the liveness test left out (``None``: the faithful twin)."""

    def mark_readers(self, d, procs, readers):
        for q in readers:
            self._components.mark(q, d)
        for q in procs:
            clauses = {
                "bufR": self.bufs.get_r(d, q) is not None,
                "bufE": self.bufs.get_e(d, q) is not None,
                "head": self.queues.head(d, q) is not None,
            }
            clauses.pop(dropped, None)
            if any(clauses.values()):
                self._components.mark(q, d)

    return mark_readers


_routing_sink = ForwardingProtocol._on_routing_change


def _routing_change_with_filtered_resync(self, p, d):
    """The routing sink with the liveness filter wrongly applied to the
    queue re-sync set as well."""
    before = set(self._resync.get(d, ()))
    _routing_sink(self, p, d)
    if d in self._resync:
        self._resync[d] -= {
            q for q in self._resync[d] - before
            if q != p and not _live(self, q, d)
        }


class TestMarkTimeFilterHasTeeth:
    """A neighbor is dirtied by a write only while it is live (it holds a
    buffer or a queued requester in that component).  Each clause of that
    test, and the rule that the queue re-sync set is *not* filtered, is
    load-bearing: planted broken by hand, one of the two oracles catches
    it."""

    def _offer_waiting_at_1(self, monkeypatch, dropped):
        # line 0-1-2, one message 0 -> 2, stopped where node 0 offers it,
        # node 1 holds nothing but ``choice_1(2) = 0`` and its R3 (which
        # binds a copy of the offered message) is evaluated and cached.
        monkeypatch.setattr(
            ForwardingProtocol, "_mark_readers", _mark_readers_without(dropped)
        )
        net = line_network(3)
        proto = make_ssmfp(net)
        proto.hl.submit(0, "m", 2)
        sim = CheckedSimulator(net.n, [proto], SynchronousDaemon())
        while proto.bufs.get_e(2, 0) is None:
            assert not sim.step().terminal
        sim._stack.before_step(sim.step_count)
        assert [a.rule for a in sim.enabled_map()[1]] == ["R3"]
        assert not _live(proto, 2, 2) and proto.queues.head(2, 1) == 0
        return proto, sim

    @pytest.mark.parametrize("dropped", (None, "bufR"))
    def test_faithful_twin_and_redundant_clause_pass_here(self, monkeypatch, dropped):
        # Node 1 is live through its queue head alone, so the hand-written
        # twin — and even one without the bufR clause — keep this scenario
        # exact; what follows is therefore about the clause it drops.
        proto, sim = self._offer_waiting_at_1(monkeypatch, dropped)
        proto.bufs.set_e(2, 0, proto.factory.invalid("other", 0, 1, 2))
        while not sim.step().terminal:
            pass

    def test_dropping_the_queue_head_clause_is_caught(self, monkeypatch):
        # The offered message is replaced out of band (what a restore() or
        # a fault injector does): the candidate set, hence the head, stays,
        # so only the buffer write can tell node 1 its bound copy is stale.
        proto, sim = self._offer_waiting_at_1(monkeypatch, "head")
        proto.bufs.set_e(2, 0, proto.factory.invalid("other", 0, 1, 2))
        with pytest.raises(InvariantViolation, match=r"1: \(\[\('R3'"):
            sim.step()

    def test_dropping_the_bufE_clause_is_caught(self, monkeypatch):
        # Node 0 holds only its emission buffer while it waits for node 1's
        # copy; unmarked by that copy, its erase (R4) is never discovered.
        proto, sim = self._offer_waiting_at_1(monkeypatch, "bufE")
        with pytest.raises(InvariantViolation, match=r"0: \(\[\], \[\('R4'"):
            for _ in range(3):
                sim.step()

    def test_filtering_the_resync_set_is_caught(self, monkeypatch):
        # A hop that moves toward a neighbor that is not live must still
        # re-sync that neighbor's queue — that is how it becomes live.  The
        # queues are state, so the cache and a fresh scan agree on the
        # stuck configuration; the full-scan engine does not.
        monkeypatch.setattr(
            ForwardingProtocol, "_on_routing_change",
            _routing_change_with_filtered_resync,
        )
        with pytest.raises(AssertionError, match="diverged"):
            _run_side_by_side(9_100, "distributed", adversarial=True)
