#!/usr/bin/env python
"""Replay the paper's Figure 3 step by step.

Prints the thirteen-plus configurations of the worked example: corrupted
routing cycle between ``a`` and ``c``, an invalid message already sitting
at ``b``, two valid messages (the second carrying the *same payload* as the
invalid one), the color mechanism keeping them apart, and the final drain
delivering all three.

Run:  python examples/figure3_replay.py
"""

from repro.experiments.fig3 import report as replay


def main() -> None:
    print(replay())


if __name__ == "__main__":
    main()
