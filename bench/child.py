"""One ``(workload, rep)``: the body of a fresh child process.

The parent (:mod:`bench.harness`) starts ``python -m bench --child ...``
once per rep so that no rep inherits another's caches, allocator state or
trace wrappers.  The child generates its inputs from the seed, optionally
installs the trace wrappers, runs the workload once and prints one JSON
object as the last line of its standard output.  With ``--seconds`` it
passes over the workload until that time has gone instead, unit by unit
and each unit between two calibration spins, and prints every pass.
"""

from __future__ import annotations

import gc
import importlib
import json
import time
from typing import Any, Dict, List

from bench.calibrate import slowdown, spin
from bench.tracing import Tracer
from bench.workloads import WORKLOADS


def main(args: Any) -> int:
    """Entry point behind ``python -m bench --child``: run one rep in this
    process and print its record.

    ``args.spawned`` is the parent's ``time.monotonic()`` just before it
    started this process (CLOCK_MONOTONIC is shared by every process on the
    machine), so ``setup_s`` covers interpreter start-up and imports too.
    """
    workload = WORKLOADS[args.workload[0]]
    substrate = importlib.import_module(f"bench.{workload.substrate}")
    params = workload.sized(args.size)
    tracer = None
    if args.trace:
        tracer = Tracer()
        substrate.instrument(tracer)
    prepared = substrate.prepare(params, args.seed)
    setup_s = time.monotonic() - args.spawned
    if args.setup_only:
        record: Dict[str, Any] = {"metrics": {"setup_s": setup_s}}
    elif args.seconds is not None:
        passes: List[List[Dict[str, Any]]] = []
        spin()  # the first one in a process is slow: the interpreter warms up
        began = time.monotonic()
        while True:
            passes.append(
                [_timed(substrate, unit) for unit in substrate.units(prepared)]
            )
            spent = time.monotonic() - began
            # Another pass only if it should end nearer the budget than
            # stopping now does.
            if spent + 0.5 * spent / len(passes) > args.seconds:
                break
            gc.collect()
            prepared = substrate.prepare(params, args.seed)
        record = {"passes": passes, "attempted": 0, "failed": 0, "problems": []}
    else:
        record = substrate.run(prepared, tracer)
        record["metrics"]["setup_s"] = setup_s
        record["metrics"]["failed_share"] = record["failed"] / record["attempted"]
        if tracer is not None and args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(record))
    return 0


def _timed(substrate: Any, unit: Any) -> Dict[str, Any]:
    """Run one unit between two calibration spins and note the slowdown."""
    before_s = spin()
    record = substrate.run(unit, None)
    record["slowdown"] = slowdown(before_s, spin())
    return record
