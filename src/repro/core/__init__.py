"""The paper's primary contribution: the forwarding-protocol family.

* :class:`~repro.core.family.ForwardingProtocol` — the family contract
  every substrate (engine, verifiers, obs, runtime, CLI) consumes;
* :class:`SSMFP` — the six-rule snap-stabilizing message forwarding
  protocol (Algorithm 1) as a state-model :class:`~repro.statemodel.Protocol`;
* :class:`SSMFP2` — the journal's second protocol (fused single-buffer
  scheme, arXiv:0905.2540) on the same substrates;
* :mod:`~repro.core.registry` — name → protocol class resolution;
* :mod:`~repro.core.caterpillar` — Definition 3's caterpillar taxonomy;
* :mod:`~repro.core.invariants` — machine-checked safety (Lemmas 4 & 5);
* :class:`~repro.core.ledger.DeliveryLedger` — exactly-once accounting;
* :mod:`~repro.core.corruption` — adversarial initial buffer/queue states.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "buffers": "ForwardingBuffers",
    "caterpillar": "Caterpillar all_caterpillars caterpillars_at",
    "choice": "FairChoiceQueue",
    "colors": "free_color",
    "corruption": "fill_all_buffers plant_invalid_message "
                  "plant_invalid_messages scramble_queues",
    "family": "ForwardingProtocol",
    "invariants": "InvariantChecker",
    "ledger": "DeliveryLedger",
    "protocol": "SSMFP",
    "protocol2": "SSMFP2",
    "registry": "PROTOCOLS available resolve",
})

__all__ = [
    "ForwardingProtocol",
    "SSMFP",
    "SSMFP2",
    "PROTOCOLS",
    "available",
    "resolve",
    "ForwardingBuffers",
    "FairChoiceQueue",
    "DeliveryLedger",
    "InvariantChecker",
    "Caterpillar",
    "all_caterpillars",
    "caterpillars_at",
    "free_color",
    "fill_all_buffers",
    "plant_invalid_message",
    "plant_invalid_messages",
    "scramble_queues",
]
