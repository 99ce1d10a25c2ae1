"""``python -m bench``: the command line.

Three ways in:

* no ``--seconds`` — the full harness: every workload (or each
  ``--workload``), ``--reps`` untraced reps and one traced rep each, a
  report on standard output and a ``repro.bench/v1`` result file;
* ``--workload W --seed N --seconds S --trace 0|1`` — the ``BENCHMARK.json``
  contract: one workload, reps for about ``S`` seconds, and one JSON object
  as the last line (end-to-end metrics untraced, per-layer metrics traced);
* ``--compare A.json B.json`` — judge result file B against A.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from bench import ROOT
from bench.workloads import FULL, SMOKE, STEADY, WORKLOADS

#: Where the program under test lives; nothing of ``repro`` is imported
#: before :func:`main` has put it on the path.
SRC = os.path.join(ROOT, "src")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="python -m bench", description=__doc__)
    parser.add_argument("--workload", action="append", default=None,
                        help="workload name (repeatable; default: all six)")
    parser.add_argument("--seed", type=int, default=7,
                        help="every input is generated from it (default 7)")
    parser.add_argument("--reps", type=int, default=5,
                        help="untraced reps per workload (default 5)")
    parser.add_argument("--smoke", action="store_true",
                        help="sizes / 20, 1 rep, same code path and checks")
    parser.add_argument("--out", default=os.path.join("bench", "out", "latest.json"),
                        help="result file to write (full harness only)")
    parser.add_argument("--spans-dir", default="",
                        help="also dump every span of the traced reps there")
    parser.add_argument("--seconds", type=float, default=None,
                        help="contract mode: measure one workload this long, "
                             "at sizes / 4-5 (a rep of 1-2 s)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="contract mode: 0 end-to-end, 1 per-layer metrics")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"),
                        help="compare two result files, exit 1 on a regression")
    # The parent's side of the child protocol (see bench/child.py).
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--size", choices=(FULL, STEADY, SMOKE), help=argparse.SUPPRESS)
    parser.add_argument("--spawned", type=float, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--spans-out", default="", help=argparse.SUPPRESS)
    return parser


def _contract(args: argparse.Namespace) -> int:
    """One workload for ``--seconds``; last line is the result object."""
    from bench.harness import measure, measure_steady
    from bench.metrics import CONTRACT_END_TO_END, PER_LAYER

    (name,) = args.workload
    workload = WORKLOADS[name]
    size = SMOKE if args.smoke else STEADY
    if args.trace:
        # One untraced rep beside the traced one, for the overhead ratio.
        record = measure(workload, args.seed, size=size, reps=1, traced=True)
        layers = record["traced"]["layers"] if record["traced"] else {}
        metrics = {
            layer.name: {"value": layers.get(layer.name, 0), "unit": layer.unit}
            for layer in PER_LAYER
        }
    else:
        record = measure_steady(workload, args.seed, size, args.seconds)
        metrics = {
            m.name: {"value": record["metrics"].get(m.name, 0), "unit": m.unit}
            for m in CONTRACT_END_TO_END
        }
    for problem in record["problems"]:
        print(f"! {problem[:300]}")
    print(json.dumps({
        "correct": record["ok"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0 if record["ok"] else 1


def _suite(args: argparse.Namespace) -> int:
    """The full harness."""
    from bench.harness import format_report, run_suite

    names = args.workload or list(WORKLOADS)
    reps = 1 if args.smoke else args.reps
    if args.spans_dir:
        os.makedirs(args.spans_dir, exist_ok=True)
    size = SMOKE if args.smoke else FULL
    results = run_suite(names, args.seed, size, reps, spans_dir=args.spans_dir)
    print()
    print(format_report(results))
    if args.out:
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(results, fh, indent=1)
            fh.write("\n")
        print(f"results written to {args.out}")
    return 0 if results["ok"] else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    # The parent's machinery is imported where it is used: a child imports
    # only what a rep needs, so setup_s times the program's set-up and not
    # the harness's.
    if args.compare:
        from bench import compare

        return compare.main(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"bench: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    unknown = [w for w in args.workload or () if w not in WORKLOADS]
    if unknown:
        print(f"bench: unknown workload {unknown}; known: {list(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if args.child:
        from bench import child

        return child.main(args)
    if args.seconds is not None:
        if not args.workload or len(args.workload) != 1:
            print("bench: --seconds needs exactly one --workload", file=sys.stderr)
            return 2
        return _contract(args)
    return _suite(args)


if __name__ == "__main__":
    sys.exit(main())
