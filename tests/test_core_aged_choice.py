"""Tests for the "aged" choice policy (the §4 future-work variant)."""

import pytest

from repro.app.workload import hotspot_workload, uniform_workload
from repro.core.choice import FairChoiceQueue
from repro.network.topologies import line_network, ring_network
from repro.sim.runner import build_simulation, delivered_and_drained
from repro.statemodel.message import Message, MessageFactory


class TestAgedQueue:
    def test_orders_by_descending_priority(self):
        q = FairChoiceQueue(policy="aged")
        q.sync({1, 2, 3}, priority={1: 0, 2: 5, 3: 2})
        assert q.items() == [2, 3, 1]

    def test_missing_priority_is_lowest(self):
        q = FairChoiceQueue(policy="aged")
        q.sync({1, 2}, priority={2: 3})
        assert q.head() == 2
        # 1 (no entry, e.g. a generation request) sits behind.
        assert q.items() == [2, 1]

    def test_ties_fifo_stable(self):
        q = FairChoiceQueue(policy="aged")
        q.sync({3}, priority={3: 1})
        q.sync({3, 1}, priority={3: 1, 1: 1})
        assert q.items() == [3, 1]  # 3 arrived first

    def test_priority_refresh_reorders(self):
        q = FairChoiceQueue(policy="aged")
        q.sync({1, 2}, priority={1: 5, 2: 0})
        assert q.head() == 1
        q.sync({1, 2}, priority={1: 5, 2: 9})
        assert q.head() == 2


class TestMessageHops:
    def test_recolored_counts_hops(self):
        m = MessageFactory().generated("x", 0, 3, 0, 0)
        assert m.hops == 0
        assert m.recolored(1, 2).hops == 1
        assert m.recolored(1, 2).recolored(2, 0).hops == 2

    def test_forwarded_copy_preserves_hops(self):
        m = MessageFactory().generated("x", 0, 3, 0, 0).recolored(0, 1)
        assert m.forwarded_copy(0).hops == m.hops


class TestAgedPolicyEndToEnd:
    @pytest.mark.parametrize("seed", range(4))
    def test_exactly_once_preserved(self, seed):
        # Safety first: the modified selection keeps the strict ledger
        # happy under corruption.
        net = ring_network(6)
        sim = build_simulation(
            net,
            workload=uniform_workload(net.n, 12, seed=seed),
            routing_corruption={"kind": "random", "fraction": 1.0, "seed": seed},
            garbage={"fraction": 0.4, "seed": seed},
            seed=seed,
            protocol_options={"choice_policy": "aged"},
        )
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()

    def test_hotspot_drains(self):
        net = line_network(6)
        sim = build_simulation(
            net,
            workload=hotspot_workload(net.n, dest=0, per_source=3, seed=2),
            routing_mode="static",
            seed=2,
            protocol_options={"choice_policy": "aged"},
        )
        sim.run(300_000, halt=delivered_and_drained)
        assert sim.ledger.all_valid_delivered()

    def test_old_message_not_overtaken(self):
        # The defining behavior: under contention, the traveled message
        # wins the buffer over freshly generated neighbors.
        from repro.experiments.fast_choice import run_one

        fifo = run_one("fifo", n=8, per_source=4, seed=1)
        aged = run_one("aged", n=8, per_source=4, seed=1)
        assert aged["probe_rounds"] <= fifo["probe_rounds"]
