"""Baseline forwarding protocols.

* :class:`MerlinSchweitzerForwarding` — the classical fault-free
  destination-based scheme the paper builds on (Figure 1): one buffer per
  (processor, destination), copy-then-erase transmission, and the
  literature's (source-id, two-value flag) message identifier.  Correct and
  deadlock-free when routing tables are correct from the start; under
  corrupted/moving tables it loses and duplicates messages — the behavior
  SSMFP's colors and R4/R5 handshake eliminate.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "merlin_schweitzer": "MerlinSchweitzerForwarding",
    "orientation_forwarding": "OrientationForwarding",
})

__all__ = [
    "MerlinSchweitzerForwarding",
    "OrientationForwarding",
]
