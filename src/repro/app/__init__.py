"""Higher layer and workloads.

SSMFP talks to "the higher layer" through the shared boolean ``request_p``
and the macros ``nextMessage_p`` / ``nextDestination_p``, and hands received
messages up through ``deliver_p`` (§3.2).  This package models that layer —
per-processor outboxes with the paper's blocking request handshake and a
delivery sink — plus workload generators that fill the outboxes.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "higher_layer": "HigherLayer",
    "workload": "Workload adversarial_same_payload_workload burst_workload "
                "hotspot_workload permutation_workload "
                "single_message_workload uniform_workload",
})

__all__ = [
    "HigherLayer",
    "Workload",
    "adversarial_same_payload_workload",
    "burst_workload",
    "hotspot_workload",
    "permutation_workload",
    "single_message_workload",
    "uniform_workload",
]
