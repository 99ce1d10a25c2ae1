"""Pins on seeded engine runs: exact schedule lengths, guard-evaluation
ceilings, the shape of the SSMFP / SSMFP2 trade-off, and the sparse state
layer's memory ceiling.

Every run here is fully seeded and deterministic across machines, so each
pin is a count or a ceiling, never a time: wall-clock is ``python -m
bench``'s (``wall_s`` / ``work_per_s`` on ``sim-*``), measured in pairs.
The full-size forms of the memory sweep live in ``tests/slow_gates.py``
and call the same sweep.
"""

import gc
import tracemalloc
from collections import deque

import pytest

from repro.app.higher_layer import HigherLayer
from repro.app.workload import hotspot_workload, uniform_workload
from repro.core.buffers import ForwardingBuffers
from repro.core.choice import LazyChoiceTable
from repro.core.ledger import DeliveryLedger
from repro.core.registry import resolve
from repro.network.topologies import grid_network, ring_network, star_network
from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
from repro.obs import MessageTracer, MetricsRegistry
from repro.sim.metrics import moves_per_delivery
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.components import ComponentDirtyCache
from repro.statemodel.daemon import DistributedRandomDaemon
from repro.statemodel.message import MessageFactory

from tests.helpers import live_sources, materialized_queue_count

# trickle = sparse traffic on converged routing (the locality showcase),
# churn = 30 % corrupted routing recovering while traffic flows (repair
# floods processors, but each repair move touches one destination
# component).  label -> (network, workload, routing corruption | None).
_CHURN = {"kind": "random", "fraction": 0.3, "seed": 5}
_SCENARIOS = {
    "ring64-trickle": (
        lambda: ring_network(64),
        lambda n: uniform_workload(n, count=64, seed=7, spread_steps=1200),
        None),
    "grid8x8-trickle": (
        lambda: grid_network(8, 8),
        lambda n: uniform_workload(n, count=64, seed=7, spread_steps=800),
        None),
    "ring64-churn": (
        lambda: ring_network(64),
        lambda n: uniform_workload(n, count=64, seed=7, spread_steps=1200),
        _CHURN),
    "ring256-churn": (
        lambda: ring_network(256),
        lambda n: uniform_workload(n, count=128, seed=7, spread_steps=1200),
        _CHURN),
    "grid16x16-trickle": (
        lambda: grid_network(16, 16),
        lambda n: uniform_workload(n, count=128, seed=7, spread_steps=1600),
        None),
    "star16-hotspot": (
        lambda: star_network(16),
        lambda n: hotspot_workload(n, dest=0, per_source=2, seed=7),
        None),
    "ring32-churn": (
        lambda: ring_network(32),
        lambda n: uniform_workload(n, count=32, seed=7, spread_steps=600),
        _CHURN),
}


def _build(label, **kwargs):
    net_builder, workload_builder, corruption = _SCENARIOS[label]
    net = net_builder()
    return build_simulation(
        net,
        workload=workload_builder(net.n),
        daemon=DistributedRandomDaemon(seed=3),
        routing_corruption=corruption,
        seed=11,
        **kwargs,
    )


# -- ENGINE: schedule lengths and component-evaluation counts ------------------

# label -> (step budget | None = to completion, steps, guard-eval ceiling).
# The steps are exact: a change that alters an execution must be deliberate.
# The ceilings sit ~10 % over the count recorded when pinned (in the
# comments; in parentheses, before reader-precise dirt for trickle and,
# for churn, before a routing write that leaves dist_p(d) as it was marked
# (p, d) alone — and before that, before an executed repair retired its
# own component): more
# means the dirty sets got coarser or a cache started missing.  The n = 256 scale
# points run a fixed budget; ring256-churn's 400 steps are all routing
# repair.  Bit-identity with the classic full scan is asserted against
# tests/reference_engines.py in test_engine_equivalence.py.
_ENGINE_PINS = {
    "ring64-trickle": (None, 1345, 7_800),      # 7,017 (10,726)
    "grid8x8-trickle": (None, 795, 2_700),      # 2,403 (6,022)
    "ring64-churn": (None, 1348, 50_300),       # 45,664 (52,632; 75,034)
    "ring256-churn": (400, 400, 181_500),       # 165,019 (167,667; 218,576)
    "grid16x16-trickle": (400, 396, 1_900),     # 1,723 (4,343)
}


def _engine_run(label, observed):
    budget = _ENGINE_PINS[label][0]
    sim = (
        _build(label, obs=MetricsRegistry(), tracer=MessageTracer())
        if observed else _build(label)
    )
    result = sim.run(
        budget or 1_000_000,
        halt=delivered_and_drained,
        raise_on_limit=budget is None,
    )
    return result.steps, sim.sim.guard_evals


@pytest.mark.parametrize(
    "label, observed",
    [(label, False) for label in _ENGINE_PINS] + [("ring64-trickle", True)],
)
def test_engine_schedule_and_guard_evals(label, observed):
    _, pinned_steps, ceiling = _ENGINE_PINS[label]
    steps, guard_evals = _engine_run(label, observed)
    assert steps == pinned_steps
    assert guard_evals <= ceiling, (
        f"{label}: {guard_evals} component evaluations, ceiling {ceiling}"
    )
    if observed:
        # A registry and a tracer watch; they change nothing: the same
        # schedule, guard evaluation for guard evaluation.
        assert (steps, guard_evals) == _engine_run(label, observed=False)


# -- SERVING: what a poll pays for ------------------------------------------------

# label -> (ceiling on the action references of newly served lists, ceiling
# on routing enabled_actions calls), ~10 % over the counts recorded when
# pinned: 242,838 and 43,386 on ring64-churn (399,351 and 44,926 when
# every poll assembled a fresh list and a silent routing layer was still
# polled), 900 and 0 on grid16x16-trickle (900 and 1,971).  A clean poll
# serves the list it served last time, a dirty one a copy with the
# re-evaluated components spliced in; the halt predicate builds no set.
_SERVING_PINS = {
    "ring64-churn": (267_000, 47_700),
    "grid16x16-trickle": (990, 0),
}


@pytest.mark.parametrize("label", list(_SERVING_PINS))
def test_served_list_references_routing_polls_and_halt_builds(label, monkeypatch):
    counts = {"references": 0, "routing_polls": 0, "outstanding_builds": 0}
    serve = ComponentDirtyCache.enabled_actions

    def counted_serve(cache, pid, evaluate, active):
        before = cache.served.get(pid)
        served = serve(cache, pid, evaluate, active)
        if served is not before:
            counts["references"] += len(served)
        return served

    poll = SelfStabilizingBFSRouting.enabled_actions

    def counted_poll(routing, pid):
        counts["routing_polls"] += 1
        return poll(routing, pid)

    outstanding = DeliveryLedger.outstanding_uids

    def counted_outstanding(ledger):
        counts["outstanding_builds"] += 1
        return outstanding(ledger)

    monkeypatch.setattr(ComponentDirtyCache, "enabled_actions", counted_serve)
    monkeypatch.setattr(SelfStabilizingBFSRouting, "enabled_actions", counted_poll)
    monkeypatch.setattr(DeliveryLedger, "outstanding_uids", counted_outstanding)
    steps, _ = _engine_run(label, observed=False)
    assert steps == _ENGINE_PINS[label][1]
    references, routing_polls = _SERVING_PINS[label]
    assert counts["references"] <= references, counts
    assert counts["routing_polls"] <= routing_polls, counts
    assert counts["outstanding_builds"] == 0, counts


# -- ARENA: the two journal protocols on the same seeded substrates ------------

_ARENA = ("ring64-trickle", "grid8x8-trickle", "star16-hotspot", "ring32-churn")


def _arena_cell(label, protocol):
    sim = _build(label, protocol=protocol)
    peak_buffers = 0

    def sampling_halt(simulation):
        nonlocal peak_buffers
        peak_buffers = max(
            peak_buffers, simulation.forwarding.bufs.total_occupied()
        )
        return delivered_and_drained(simulation)

    result = sim.run(1_000_000, halt=sampling_halt)
    delivered = sim.ledger.valid_delivered_count
    return {
        "delivered": delivered,
        "moves_per_delivery": moves_per_delivery(
            result.rule_counts, delivered, resolve(protocol).forwarding_rules
        ),
        "peak_buffers": peak_buffers,
        "guard_evals": sim.sim.guard_evals,
    }


def test_arena_trade_off_has_the_journal_shape():
    """SSMFP2's fused buffer against SSMFP's two-buffer handshake, only the
    registry name changing between runs: one move per delivery saved and
    half the buffers.  (What SSMFP2 gives up is concurrency — one in-flight
    message per lane — which an abstract move count cannot see.)"""
    cell = {
        (label, protocol): _arena_cell(label, protocol)
        for label in _ARENA
        for protocol in ("ssmfp", "ssmfp2")
    }
    assert all(c["delivered"] > 0 for c in cell.values())
    # The family seam: protocol 2 rides the incremental engine inside the
    # budget ENGINE holds SSMFP to — a full scan through the seam would
    # blow it.
    ceiling = _ENGINE_PINS["ring64-trickle"][2]
    for protocol in ("ssmfp", "ssmfp2"):
        guard_evals = cell["ring64-trickle", protocol]["guard_evals"]
        assert guard_evals <= ceiling, (
            f"{protocol}: {guard_evals} component evaluations on "
            f"ring64-trickle, ceiling {ceiling}"
        )
    # F2 (adoption) replaces R2 (reception -> emission) one-for-one along
    # the path and F1 generates already owned.
    for label in _ARENA:
        assert (cell[label, "ssmfp2"]["moves_per_delivery"]
                < cell[label, "ssmfp"]["moves_per_delivery"]), label
    # Under congestion every hotspot source holds an R and an E copy under
    # SSMFP, one fused copy under SSMFP2.
    assert (cell["star16-hotspot", "ssmfp2"]["peak_buffers"]
            < cell["star16-hotspot", "ssmfp"]["peak_buffers"])


# -- SCALE: memory tracks the live window, not the address space ---------------

#: Hot destinations of the sweep (ids 0..7); cold traffic goes elsewhere.
_HOT = 8
#: Live pairs allowed to exist simultaneously during the sweep.
_LIVE_CAP = 256
#: tracemalloc ceiling of the sweep at *any* pair count, bytes: the peak
#: recorded when first pinned × 1.2.  On CPython 3.11.7 it reads 218,848
#: at 10^4 and at 10^5 pairs in a fresh process, up to 136 bytes less
#: after other tests have run in it — 90 % of the ceiling.
SWEEP_CEILING = 243_000


def _pair(i, n):
    """The i-th distinct (source, destination) pair of the hotspot sweep:
    9 of 10 pairs target one of the 8 hot destinations, the rest sweep the
    cold id space.  Distinctness is constructive (no tracking set): hot
    pairs vary the source per destination, cold pairs vary the
    destination, and hot/cold destination ranges are disjoint."""
    if i % 10 != 9:
        j = i - i // 10                 # index within the hot subsequence
        return _HOT + (j // _HOT) % (n - _HOT), j % _HOT
    dest = _HOT + (i // 10) % (n - _HOT)
    return (dest + 1) % n, dest


def check_pair_sweep(pairs, n):
    """Drive ``pairs`` distinct (source, destination) pairs on an id space
    of ``n`` through the sparse state layer's public mutators with a
    bounded live window, and hold the tracemalloc peak and the end-state
    footprint to the window: the dense layer allocated n² cells up front
    (n = 50,000 is unbuildable); growth past the ceiling means
    per-destination state stopped evicting or materializes eagerly."""
    factory = MessageFactory()
    gc.collect()
    tracemalloc.start()
    bufs = ForwardingBuffers(n)
    queues = LazyChoiceTable("fifo")
    hl = HigherLayer(n)
    live = deque()
    for i in range(pairs):
        src, dest = _pair(i, n)
        hl.submit(src, i, dest)
        hl.before_step(i)
        payload, d = hl.consume_request(src)
        bufs.set_r(d, src, factory.generated(payload, src, d, 0, i))
        queues.materialize(d, src).sync([src], None)
        live.append((d, src))
        if len(live) > _LIVE_CAP:        # quiescence: vacate the oldest
            od, op = live.popleft()
            bufs.set_r(od, op, None)
            queues.peek(od, op).sync([], None)
            queues.evict_if_clean(od, op)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak <= SWEEP_CEILING, (
        f"{pairs} pairs: tracemalloc peak {peak} bytes, ceiling "
        f"{SWEEP_CEILING} ({peak / SWEEP_CEILING:.1%})"
    )
    assert bufs.total_occupied() == len(live)
    assert materialized_queue_count(queues) <= _LIVE_CAP + 1
    assert not live_sources(hl)


def test_pair_sweep_peak_is_the_live_window():
    check_pair_sweep(10_000, 5_000)
