"""Differential conformance: both family members, same harness, same
adversaries.

Every scenario drives a protocol picked from the registry through the
shared topology zoo under an adversarial initial configuration —
planted invalid garbage (the duplication/forgery adversary), scrambled
choice queues (arbitrary fairness state), and corrupted routing tables
recovering mid-flight (the loss/reorder adversary: messages chase moving
next-hop pointers while A converges).  The specification is identical
for both protocols and checked three ways:

* exactly-once — the strict :class:`DeliveryLedger` raises on duplicate
  or misdelivered valid uids, and every generated uid must be delivered;
* per-pair FIFO — deliveries for each (source, destination) pair arrive
  in generation order (single buffer per hop per destination: no
  overtaking on a fixed routing tree);
* per-step invariants — ``tests.helpers.checked`` runs the
  :class:`InvariantChecker` after every step, so any intermediate
  configuration that loses or duplicates a valid message fails the run
  immediately.
"""

import pytest

from repro.network.topologies import (
    grid_network,
    line_network,
    ring_network,
    star_network,
)
from repro.sim.runner import build_simulation, fully_quiescent

from tests.helpers import checked

PROTOCOLS = ("ssmfp", "ssmfp2")

TOPOLOGIES = (
    ("line5", lambda: line_network(5)),
    ("ring6", lambda: ring_network(6)),
    ("star5", lambda: star_network(5)),
    ("grid3x3", lambda: grid_network(3, 3)),
)

# kwargs for build_simulation beyond (net, workload, protocol).
ADVERSARIES = (
    ("clean-static", {"routing_mode": "static"}),
    (
        "garbage-scrambled",
        {
            "routing_mode": "static",
            "garbage": {"fraction": 0.3, "seed": 2},
            "scramble_choice_queues": True,
        },
    ),
    (
        "routing-random",
        {
            "routing_mode": "selfstab",
            "routing_corruption": {"kind": "random", "fraction": 1.0, "seed": 3},
        },
    ),
    (
        "routing-worst-garbage",
        {
            "routing_mode": "selfstab",
            "routing_corruption": {"kind": "worst", "seed": 4},
            "garbage": {"fraction": 0.2, "seed": 5},
        },
    ),
)


def _run(protocol, net_builder, extra):
    from repro.app.workload import uniform_workload

    net = net_builder()
    sim = checked(build_simulation(
        net,
        workload=uniform_workload(net.n, count=2 * net.n, seed=9),
        protocol=protocol,
        seed=13,
        **extra,
    ))
    sim.run(200_000, halt=fully_quiescent)
    return sim


def _assert_per_pair_fifo(sim):
    """Valid deliveries for each (source, dest) pair carry ascending uids
    (uids are allocated in generation order, and generation per pair
    follows submission order)."""
    pairs = {}
    for _at, msg, _step in sim.hl.delivered:
        if msg.valid:
            pairs.setdefault((msg.source, msg.dest), []).append(msg.uid)
    assert pairs, "scenario delivered nothing"
    for pair, uids in pairs.items():
        assert uids == sorted(uids), f"FIFO violated for {pair}: {uids}"


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("adversary,extra", ADVERSARIES, ids=[a for a, _ in ADVERSARIES])
@pytest.mark.parametrize("topology,net_builder", TOPOLOGIES, ids=[t for t, _ in TOPOLOGIES])
def test_exactly_once_and_fifo(protocol, topology, net_builder, adversary, extra):
    sim = _run(protocol, net_builder, extra)
    assert sim.ledger.all_valid_delivered()
    assert sim.ledger.lost_count == 0
    assert sorted(sim.ledger.delivered_uids()) == sorted(sim.ledger.generated_uids())
    assert sim.forwarding.network_is_empty()  # garbage fully drained too
    _assert_per_pair_fifo(sim)


@pytest.mark.parametrize("topology,net_builder", TOPOLOGIES, ids=[t for t, _ in TOPOLOGIES])
def test_protocols_agree_on_delivery_sets(topology, net_builder):
    """The two protocols run the same seeded scenario and must agree on
    *what* is delivered and in which per-pair order, even though their
    executions differ move by move.  (Compared by payload, not uid: uids
    are allocated in generation order, which is schedule-dependent and
    legitimately differs between the protocols' rule sets.)"""
    outcomes = {}
    for protocol in PROTOCOLS:
        sim = _run(protocol, net_builder, {"routing_mode": "static"})
        by_pair = {}
        for _at, msg, _step in sim.hl.delivered:
            if msg.valid:
                by_pair.setdefault((msg.source, msg.dest), []).append(msg.payload)
        outcomes[protocol] = by_pair
    assert outcomes["ssmfp"] == outcomes["ssmfp2"]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_fused_plane_stays_consistent_under_duplication(protocol):
    """Same-payload pairs through one bottleneck: the scenario that makes
    color-discipline mistakes observable (the R5/F5 erratum shape)."""
    from repro.app.workload import Workload

    net = line_network(4)
    subs = [(0, 0, "dup", 3), (0, 0, "dup", 3), (0, 1, "dup", 3)]
    sim = checked(build_simulation(
        net,
        workload=Workload("dup-pairs", subs),
        protocol=protocol,
        seed=21,
        routing_mode="static",
    ))
    sim.run(50_000, halt=fully_quiescent)
    assert sim.ledger.all_valid_delivered()
    assert len(sim.ledger.delivered_uids()) == 3
