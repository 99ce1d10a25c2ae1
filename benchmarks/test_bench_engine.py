"""Engine micro-benchmarks: raw simulator throughput.

Unlike the experiment benchmarks (one deterministic macro-run each), these
time the hot paths for real — guard evaluation, step application, queue
reconciliation — so regressions in the engine show up as timing changes.
"""

import time

import pytest

from conftest import archive, bench_once
from repro.app.workload import hotspot_workload, uniform_workload
from repro.network.topologies import grid_network, ring_network
from repro.sim.reporting import format_table
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.daemon import DistributedRandomDaemon, SynchronousDaemon


def drive_to_completion(net_builder, workload_builder, **build_kwargs):
    def run():
        net = net_builder()
        sim = build_simulation(
            net, workload=workload_builder(net), seed=1, **build_kwargs
        )
        sim.run(1_000_000, halt=delivered_and_drained)
        return sim.sim.step_count

    return run


def test_bench_engine_hotspot_ring16(benchmark):
    steps = benchmark(
        drive_to_completion(
            lambda: ring_network(16),
            lambda net: hotspot_workload(net.n, dest=0, per_source=2, seed=1),
            routing_mode="static",
        )
    )
    assert steps > 0


def test_bench_engine_uniform_grid(benchmark):
    steps = benchmark(
        drive_to_completion(
            lambda: grid_network(4, 4),
            lambda net: uniform_workload(net.n, 24, seed=1),
            routing_mode="static",
        )
    )
    assert steps > 0


def test_bench_engine_corrupted_recovery(benchmark):
    steps = benchmark(
        drive_to_completion(
            lambda: ring_network(12),
            lambda net: uniform_workload(net.n, 12, seed=1),
            routing_corruption={"kind": "worst", "seed": 1},
            garbage={"fraction": 0.3, "seed": 1},
        )
    )
    assert steps > 0


def test_bench_engine_synchronous_steps(benchmark):
    # Pure stepping cost: synchronous daemon, fixed number of steps.
    def run():
        net = ring_network(16)
        sim = build_simulation(
            net,
            workload=hotspot_workload(net.n, dest=0, per_source=4, seed=2),
            daemon=SynchronousDaemon(),
            routing_mode="static",
            seed=2,
        )
        for _ in range(100):
            sim.step()
        return sim.sim.step_count

    assert benchmark(run) == 100


def test_bench_engine_hotspot_ring64(benchmark):
    # n >= 64 scale point for the incremental enabled-set engine (default).
    steps = benchmark(
        drive_to_completion(
            lambda: ring_network(64),
            lambda net: hotspot_workload(net.n, dest=0, per_source=1, seed=1),
            routing_mode="static",
        )
    )
    assert steps > 0


def test_bench_engine_uniform_grid8x8(benchmark):
    steps = benchmark(
        drive_to_completion(
            lambda: grid_network(8, 8),
            lambda net: uniform_workload(net.n, 64, seed=1, spread_steps=200),
            routing_mode="static",
        )
    )
    assert steps > 0


# The scenarios of the engine table (ENGINE.txt): trickle = sparse traffic
# on converged routing (the locality showcase), churn = corrupted routing
# recovering while traffic flows (the case the component-granular dirty sets
# exist for: repair floods processors, but each repair move touches one
# destination component).  The n=256 scale points run a fixed step budget
# instead of to completion.  Bit-identity with the classic full scan is
# asserted in tier-1 against tests/reference_engines.py, not raced here.
# Fields: (label, net, workload, corruption, steps_cap | None).
_ENGINE_SCENARIOS = (
    ("ring64-trickle", lambda: ring_network(64),
     lambda n: uniform_workload(n, count=64, seed=7, spread_steps=1200),
     None, None),
    ("grid8x8-trickle", lambda: grid_network(8, 8),
     lambda n: uniform_workload(n, count=64, seed=7, spread_steps=800),
     None, None),
    ("ring64-churn", lambda: ring_network(64),
     lambda n: uniform_workload(n, count=64, seed=7, spread_steps=1200),
     {"kind": "random", "fraction": 0.3, "seed": 5}, None),
    ("ring256-churn", lambda: ring_network(256),
     lambda n: uniform_workload(n, count=128, seed=7, spread_steps=1200),
     {"kind": "random", "fraction": 0.3, "seed": 5}, 400),
    ("grid16x16-trickle", lambda: grid_network(16, 16),
     lambda n: uniform_workload(n, count=128, seed=7, spread_steps=1600),
     None, 400),
)

# Regression pins for the engine's component-evaluation counts.  The runs
# are fully seeded and deterministic across machines, so any increase means
# the dirty sets got coarser (or a cache started missing) — CI runs this
# bench and fails the build on regression.  Small headroom (~10%) over the
# values recorded when pinned keeps benign accounting tweaks from tripping
# it without hiding a real granularity loss.
_INCR_GUARD_CEILINGS = {
    "ring64-trickle": 7_800,        # measured 7,017 (10,726 before reader-precise dirt)
    "grid8x8-trickle": 2_700,       # measured 2,403 (6,022)
    "ring64-churn": 82_500,         # measured 75,034 (80,132)
    "ring256-churn": 241_000,       # measured 218,576 (all routing repair)
    "grid16x16-trickle": 1_900,     # measured 1,723 (4,343)
}

# The schedule lengths of the same seeded runs: exact, since any change to
# the engine that alters an execution must be deliberate.
_INCR_STEPS = {
    "ring64-trickle": 1345,
    "grid8x8-trickle": 795,
    "ring64-churn": 1348,
    "ring256-churn": 400,
    "grid16x16-trickle": 396,
}


def _engine_row(label, net_builder, wl_builder, corruption, steps_cap):
    net = net_builder()
    sim = build_simulation(
        net,
        workload=wl_builder(net.n),
        daemon=DistributedRandomDaemon(seed=3),
        routing_corruption=corruption,
        seed=11,
    )
    t0 = time.perf_counter()
    if steps_cap is None:
        result = sim.run(1_000_000, halt=delivered_and_drained)
    else:
        result = sim.run(steps_cap, halt=delivered_and_drained,
                         raise_on_limit=False)
    return {
        "scenario": label,
        "incr_s": round(time.perf_counter() - t0, 3),
        "incr_guard_evals": sim.sim.guard_evals,
        "incr_steps": result.steps,
    }


def test_bench_engine_incremental_vs_full_scan(benchmark):
    """The headline engine table: component-granular guard caching at
    n >= 64.  guard_evals counts (processor, destination) component
    evaluations (see docs/engine.md)."""
    rows = bench_once(
        benchmark,
        lambda: [_engine_row(*scenario) for scenario in _ENGINE_SCENARIOS],
    )
    archive(
        "ENGINE",
        format_table(
            rows,
            columns=["scenario", "incr_steps", "incr_guard_evals", "incr_s"],
            title="ENGINE — component-granular incremental engine "
                  "(seeded, deterministic executions)",
        ),
        rows=rows,
        meta={"table": "ENGINE", "scenarios": len(rows)},
    )
    by_label = {r["scenario"]: r for r in rows}
    for label, ceiling in _INCR_GUARD_CEILINGS.items():
        assert by_label[label]["incr_steps"] == _INCR_STEPS[label]
        assert by_label[label]["incr_guard_evals"] <= ceiling, (
            f"{label}: incremental guard evals regressed above the pinned "
            f"ceiling ({by_label[label]['incr_guard_evals']} > {ceiling})"
        )


def test_bench_routing_convergence(benchmark):
    from repro.routing.corruption import corrupt_worst_case
    from repro.routing.selfstab_bfs import SelfStabilizingBFSRouting
    from repro.statemodel.scheduler import Simulator

    def run():
        net = grid_network(4, 4)
        routing = SelfStabilizingBFSRouting(net)
        corrupt_worst_case(routing, seed=3)
        sim = Simulator(net.n, routing, SynchronousDaemon())
        sim.run(100_000)
        return sim.step_count

    assert benchmark(run) > 0
