#!/usr/bin/env python
"""Reproduce the paper's complexity landscape in one run.

Sweeps the (Δ, D) plane with the Proposition-5/7 harnesses and prints the
two headline tables:

* per-message worst case — probe delivery rounds against the
  max(R_A, Δ^D) envelope (Proposition 5);
* amortized — rounds per delivered message growing with D, orders of
  magnitude below Δ^D (Proposition 7).

Run:  python examples/complexity_sweep.py        (takes a few seconds)
"""

from repro.experiments import prop5, prop7


def main() -> None:
    print(prop5.SWEEP.report(seeds=(1, 2)))
    print()
    print(prop7.SWEEP.report(seeds=(1,), n=(6, 10, 14)))


if __name__ == "__main__":
    main()
