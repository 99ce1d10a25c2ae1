"""ARENA — the protocol family head-to-head.

Both journal protocols (SSMFP's two-buffer handshake, SSMFP2's fused
single buffer) run the *same* seeded scenarios on the *same* substrates:
identical topology zoo, workloads, daemon and fault adversaries, with
only the registry name changing between runs.  The table reports the
trade-off the journal describes qualitatively — half the buffer
footprint and one saved handshake move per delivery, against the loss
of pipelining (the fused buffer admits one in-flight message per lane)
— as measured delivery delay, rounds per delivery, peak buffer
occupancy, moves per delivery and guard-evaluation cost.

``ring64-trickle`` is ENGINE.txt's scenario verbatim, which lets the
pinned guard-eval ceiling double as a seam-regression gate: protocol 2
goes through exactly the incremental-engine path SSMFP does, so a
full-scan regression through the family seam would blow the same
ceiling ENGINE pins for SSMFP.
"""

import statistics

from conftest import archive, bench_once
from repro.app.workload import hotspot_workload, uniform_workload
from repro.core.registry import resolve
from repro.network.topologies import grid_network, ring_network, star_network
from repro.sim.metrics import (
    amortized_rounds_per_delivery,
    delivery_latency_steps,
    moves_per_delivery,
)
from repro.sim.reporting import format_table
from repro.sim.runner import build_simulation, delivered_and_drained

#: (label, net builder, workload builder, routing corruption | None).
_ARENA_SCENARIOS = (
    ("ring64-trickle", lambda: ring_network(64),
     lambda n: uniform_workload(n, count=64, seed=7, spread_steps=1200),
     None),
    ("grid8x8-trickle", lambda: grid_network(8, 8),
     lambda n: uniform_workload(n, count=64, seed=7, spread_steps=800),
     None),
    ("star16-hotspot", lambda: star_network(16),
     lambda n: hotspot_workload(n, dest=0, per_source=2, seed=7),
     None),
    ("ring32-churn", lambda: ring_network(32),
     lambda n: uniform_workload(n, count=32, seed=7, spread_steps=600),
     {"kind": "random", "fraction": 0.3, "seed": 5}),
)

#: ENGINE.txt's pinned ceiling for ring64-trickle — the seam gate: both
#: family members must stay under the *same* incremental-engine budget.
_RING64_GUARD_CEILING = 7_800


def _arena_row(protocol, label, net_builder, wl_builder, corruption):
    from repro.statemodel.daemon import DistributedRandomDaemon

    net = net_builder()
    sim = build_simulation(
        net,
        workload=wl_builder(net.n),
        daemon=DistributedRandomDaemon(seed=3),
        routing_corruption=corruption,
        protocol=protocol,
        seed=11,
    )
    peak = {"buffers": 0}

    def sampling_halt(simulation):
        occupied = simulation.forwarding.bufs.total_occupied()
        if occupied > peak["buffers"]:
            peak["buffers"] = occupied
        return delivered_and_drained(simulation)

    result = sim.run(1_000_000, halt=sampling_halt)
    delivered = sim.ledger.valid_delivered_count
    latencies = list(delivery_latency_steps(sim.ledger).values())
    forwarding_rules = resolve(protocol).forwarding_rules
    return {
        "scenario": label,
        "protocol": protocol,
        "steps": result.steps,
        "rounds": result.rounds,
        "delivered": delivered,
        "rounds_per_delivery": round(
            amortized_rounds_per_delivery(result.rounds, delivered), 2
        ),
        "mean_latency_steps": round(statistics.mean(latencies), 1),
        "moves_per_delivery": round(
            moves_per_delivery(result.rule_counts, delivered, forwarding_rules), 2
        ),
        "peak_buffers": peak["buffers"],
        "guard_evals": sim.sim.guard_evals,
    }


def test_bench_arena_family_head_to_head(benchmark):
    rows = bench_once(
        benchmark,
        lambda: [
            _arena_row(protocol, *scenario)
            for scenario in _ARENA_SCENARIOS
            for protocol in ("ssmfp", "ssmfp2")
        ],
    )
    archive(
        "ARENA",
        format_table(
            rows,
            columns=[
                "scenario", "protocol", "steps", "rounds", "delivered",
                "rounds_per_delivery", "mean_latency_steps",
                "moves_per_delivery", "peak_buffers", "guard_evals",
            ],
            title="ARENA — SSMFP vs SSMFP2: same substrates, same seeds, "
                  "same adversaries",
        ),
        rows=rows,
        meta={"table": "ARENA", "scenarios": len(_ARENA_SCENARIOS),
              "protocols": ["ssmfp", "ssmfp2"]},
    )
    by_key = {(r["scenario"], r["protocol"]): r for r in rows}
    # Specification: everything delivered, in every cell of the table.
    for row in rows:
        assert row["delivered"] > 0
    # The seam gate: protocol 2 rides the incremental engine within the
    # same pinned budget ENGINE.txt holds SSMFP to on this scenario.
    for protocol in ("ssmfp", "ssmfp2"):
        cell = by_key[("ring64-trickle", protocol)]
        assert cell["guard_evals"] <= _RING64_GUARD_CEILING, (
            f"{protocol}: ring64-trickle guard evals regressed above the "
            f"pinned ceiling ({cell['guard_evals']} > {_RING64_GUARD_CEILING})"
        )
    # The structural trade-off, measured.  In the abstract model the fused
    # scheme is strictly cheaper: SSMFP pays an internal R2 handshake move
    # (reception -> emission) on top of each inter-processor copy, while
    # SSMFP2's adoption (F2) replaces it one-for-one and generation (F1)
    # starts already owned — one move per delivery saved.  What SSMFP2
    # gives up is concurrency, which the abstract move count cannot see:
    # the single fused buffer forces stop-and-wait lanes in the runtime
    # (window cap 1 vs SSMFP's pipelined window).
    for scenario, _, _, _ in _ARENA_SCENARIOS:
        one = by_key[(scenario, "ssmfp")]
        two = by_key[(scenario, "ssmfp2")]
        assert two["moves_per_delivery"] < one["moves_per_delivery"]
    # Under congestion the halved buffer budget is visible directly: all
    # 15 hotspot sources hold R+E copies under SSMFP, only fused ones
    # under SSMFP2.
    assert (by_key[("star16-hotspot", "ssmfp2")]["peak_buffers"]
            < by_key[("star16-hotspot", "ssmfp")]["peak_buffers"])
