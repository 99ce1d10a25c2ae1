"""Shared test helpers (importable, unlike conftest)."""

from __future__ import annotations

from repro.app.higher_layer import HigherLayer
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.core.protocol2 import SSMFP2
from repro.routing.static import StaticRouting


def make_ssmfp(net, routing=None, **kwargs):
    """Assemble an SSMFP instance with static routing and fresh
    higher-layer/ledger (helper for rule-level unit tests)."""
    routing = routing if routing is not None else StaticRouting(net)
    hl = HigherLayer(net.n)
    ledger = DeliveryLedger()
    return SSMFP(net, routing, hl, ledger, **kwargs)


def make_ssmfp2(net, routing=None, **kwargs):
    """Assemble an SSMFP2 (fused single-buffer) instance with static
    routing and fresh higher-layer/ledger."""
    routing = routing if routing is not None else StaticRouting(net)
    hl = HigherLayer(net.n)
    ledger = DeliveryLedger()
    return SSMFP2(net, routing, hl, ledger, **kwargs)


def rule(proto, label, p, d):
    """The action labelled ``label`` among the enabled rules of ``(p, d)``,
    or None when that guard is false — one rule out of the fused evaluator."""
    assert label in proto.rule_order
    for action in proto._eval_component(p, d):
        if action.rule == label:
            return action
    return None
