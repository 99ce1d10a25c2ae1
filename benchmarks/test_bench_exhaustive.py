"""Benchmarks X5 and X-PAR — exhaustive model checking.

X5 regenerates the safety table (including the ``line(4)`` instance that
only the snapshot engine makes practical).  X-PAR measures the PR 8 scale
layers on the ``line(4)`` scale point — frontier-parallel workers plus
partial-order reduction vs the serial snapshot engine (reachable states
pinned equal, states/sec gated on multi-core runners) — and the symmetry
quotient on a rotationally symmetric ring (state cut gated).
"""

import os
import time

from conftest import archive, bench_once

from repro.app.higher_layer import HigherLayer
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.experiments import exhaustive
from repro.network.topologies import ring_network
from repro.routing.static import StaticRouting
from repro.sim.reporting import format_table
from repro.verify.modelcheck import ModelChecker, default_workers
from repro.verify.parallel import fork_available

# Parallel + POR must deliver at least this states/sec multiple over the
# serial unreduced snapshot engine on line(4).  POR alone contributes
# ~1.6x (215,785 of 434,012 transitions survive); the workers carry the
# rest, so the gate only applies on multi-core runners (CI enforces it).
MIN_PARALLEL_SPEEDUP = 3.0

# The symmetry quotient must cut the reachable states of the symmetric
# ring by at least this factor (measured ~12x with the uid relabeling).
MIN_SYMMETRY_CUT = 2.0


def test_bench_exhaustive(benchmark):
    rows = bench_once(benchmark, exhaustive.run_exhaustive)
    report = exhaustive.render(rows)
    archive("X5", report, rows=rows, meta={"table": "X5", "instances": len(rows)})
    safe = [r for r in rows if r["expected"] == "safe"]
    buggy = [r for r in rows if r["expected"] == "counterexample"]
    assert safe and all(r["violations"] == 0 for r in safe)
    assert buggy and all(r["violations"] > 0 for r in buggy)
    # Every instance has exactly one fully-drained terminal configuration.
    assert all(r["terminal"] == 1 for r in safe)
    # The snapshot-engine scale point: line(4) is actually exhausted.
    line4 = next(r for r in rows if "line(4)" in r["instance"])
    assert line4["states"] > 10_000 and line4["violations"] == 0


def _symmetric_ring_make():
    """ring(3) with the rotational workload i -> i+1: the full rotation
    group survives validation, so symmetry reduction gets its best case
    (while staying honest — reflections are broken by the workload)."""
    net = ring_network(3)
    proto = SSMFP(net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger())
    for i in range(net.n):
        proto.hl.submit(i, "m", (i + 1) % net.n)
    return proto


def _par_rows():
    rows = []

    # -- line(4) scale point: serial snapshot vs parallel + POR ---------------
    name, make, _expect = next(
        inst for inst in exhaustive._instances() if "line(4)" in inst[0]
    )
    kwargs = dict(max_states=200_000, max_selection_width=20_000)
    t0 = time.perf_counter()
    serial = ModelChecker(make, engine="snapshot", **kwargs).run()
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    par = ModelChecker(
        make, engine="parallel", reduction="por",
        workers=default_workers(), **kwargs,
    ).run()
    par_s = time.perf_counter() - t0
    # POR preserves the reachable state set exactly; only transition
    # edges (pruned composite selections) may drop.
    assert par.states == serial.states, name
    assert par.terminal_states == serial.terminal_states, name
    assert par.transitions < serial.transitions, name
    assert par.violations == serial.violations == []
    assert not par.truncated and not serial.truncated
    rows.append({
        "row": "line(4) parallel+por",
        "workers": default_workers(),
        "states": par.states,
        "serial_transitions": serial.transitions,
        "reduced_transitions": par.transitions,
        "serial_s": round(serial_s, 3),
        "parallel_s": round(par_s, 3),
        "serial_states_per_s": round(serial.states / serial_s),
        "parallel_states_per_s": round(par.states / par_s),
        "speedup": round(serial_s / par_s, 2),
    })

    # -- symmetric ring: symmetry quotient state cut --------------------------
    base = ModelChecker(_symmetric_ring_make, **kwargs).run()
    sym = ModelChecker(
        _symmetric_ring_make, reduction="symmetry", **kwargs
    ).run()
    assert sym.group_size >= 2, "rotations must validate on the ring"
    assert not base.violations and not sym.violations
    assert not base.truncated and not sym.truncated
    rows.append({
        "row": "ring(3) symmetry",
        "workers": 1,
        "states": sym.states,
        "serial_transitions": base.transitions,
        "reduced_transitions": sym.transitions,
        "serial_s": None,
        "parallel_s": None,
        "serial_states_per_s": base.states,
        "parallel_states_per_s": sym.states,
        "speedup": round(base.states / sym.states, 2),
    })
    return rows


def test_bench_parallel_reduction(benchmark):
    rows = bench_once(benchmark, _par_rows)
    multicore = (os.cpu_count() or 1) >= 2 and fork_available()
    report = format_table(
        rows,
        columns=[
            "row", "workers", "states", "serial_transitions",
            "reduced_transitions", "serial_s", "parallel_s",
            "serial_states_per_s", "parallel_states_per_s", "speedup",
        ],
        title="X-PAR - frontier-parallel + reduced exploration vs serial "
              "snapshot (state sets pinned equal; speedup gated on "
              "multi-core runners)",
    )
    archive(
        "X-PAR", report, rows=rows,
        meta={
            "table": "X-PAR",
            "min_parallel_speedup": MIN_PARALLEL_SPEEDUP,
            "min_symmetry_cut": MIN_SYMMETRY_CUT,
            "cpus": os.cpu_count(),
            "speedup_gate_enforced": multicore,
        },
    )
    line4 = rows[0]
    ring = rows[1]
    assert ring["speedup"] >= MIN_SYMMETRY_CUT, (
        f"symmetry state cut regressed below {MIN_SYMMETRY_CUT}x: "
        f"{ring['speedup']}x on the symmetric ring"
    )
    if multicore:
        assert line4["speedup"] >= MIN_PARALLEL_SPEEDUP, (
            f"parallel+reduction speedup regressed below "
            f"{MIN_PARALLEL_SPEEDUP}x: {line4['speedup']}x "
            f"({line4['workers']} workers on {os.cpu_count()} CPUs)"
        )
