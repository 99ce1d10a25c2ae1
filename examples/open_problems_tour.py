#!/usr/bin/env python
"""A tour of the paper's §4 conclusion, made executable.

Three stops:

1. **The open problem** (X1): how many buffers per processor could a
   snap-stabilizing protocol hope to use?  The fault-free
   acyclic-orientation-cover scheme needs only 2 on trees and 3 on rings
   (vs SSMFP's 2n) — the gap the open problem asks about.
2. **Faster worst case** (X2): changing ``choice_p(d)`` from FIFO to
   age-priority — the paper's suggested direction — measurably cuts the
   worst-case probe latency under contention.
3. **The message-passing model** (X3): the live runtime's lane protocol
   (``HopCore``) on the seeded message-passing engine delivers exactly
   once from clean starts, and a window of 4 pipelines each lane with
   fewer records per hop than stop-and-wait.  Corrupted starts are still
   open: the naive OFFER/ACCEPT/RELEASE port starves on one garbage OFFER
   (``tests/reference_mp_naive.py``), and one forged DATA record can
   make ``HopCore`` lose a message.

Run:  python examples/open_problems_tour.py     (a few seconds)
"""

from repro.experiments import fast_choice, message_passing, open_problem


def main() -> None:
    print(open_problem.report())
    print()
    print(fast_choice.SWEEP.report(n=(8,), per_source=(4,), seeds=(1, 2)))
    print()
    print(message_passing.report(seeds=(1,)))


if __name__ == "__main__":
    main()
