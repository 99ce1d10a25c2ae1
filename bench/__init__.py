"""One measuring stick for the three substrates of this reproduction.

``python -m bench`` runs six named workloads — three on the state-model
simulator, two on the live runtime, one on the exhaustive verifier — each
``(workload, rep)`` in a fresh child process, reports end-to-end metrics
from untraced reps and per-layer metrics from one traced rep, checks every
output, and exits non-zero on a wrong one.  Nothing under ``src/`` knows
about this package: spans are recorded by wrappers the traced child
installs around each layer's entry points (see :mod:`bench.tracing`).

Start with ``bench/README.md``.
"""

import os

#: Schema tag of the result files (``bench/results/*.json``).
SCHEMA = "repro.bench/v1"

#: The checkout: children run there, ``src/`` is looked for there.
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
