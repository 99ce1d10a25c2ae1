"""Baseline forwarding protocols.

* :class:`MerlinSchweitzerForwarding` — the classical fault-free
  destination-based scheme the paper builds on (Figure 1): one buffer per
  (processor, destination), copy-then-erase transmission, and the
  literature's (source-id, two-value flag) message identifier.  Correct and
  deadlock-free when routing tables are correct from the start; under
  corrupted/moving tables it loses and duplicates messages — the behavior
  SSMFP's colors and R4/R5 handshake eliminate.
"""

from repro.baselines.merlin_schweitzer import MerlinSchweitzerForwarding
from repro.baselines.orientation_forwarding import OrientationForwarding

__all__ = [
    "MerlinSchweitzerForwarding",
    "OrientationForwarding",
]
