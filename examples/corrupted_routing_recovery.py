#!/usr/bin/env python
"""Watch the system heal: routing repair and forwarding, live.

Starts a grid network with worst-case corrupted routing tables and a
stream of messages, then prints a periodic dashboard while the
self-stabilizing routing protocol repairs the tables *underneath live
forwarding traffic* — the scenario snap-stabilization is for.  Messages
submitted before the tables are correct are still delivered exactly once.

Run:  python examples/corrupted_routing_recovery.py
"""

from repro import build_simulation, delivered_and_drained
from repro.app import uniform_workload
from repro.network import grid_network
from repro.routing.analysis import routing_errors


def main() -> None:
    net = grid_network(3, 4)
    workload = uniform_workload(net.n, count=30, seed=7, spread_steps=40)
    sim = build_simulation(
        net,
        workload=workload,
        routing_corruption={"kind": "worst", "seed": 7},
        garbage={"fraction": 0.3, "seed": 7},
        seed=7,
    )

    print(f"{'step':>6} {'round':>6} {'table errors':>13} {'in flight':>10} "
          f"{'generated':>10} {'delivered':>10}")
    stabilized_at = None

    def dashboard(sim) -> None:
        nonlocal stabilized_at
        if sim.sim.step_count % 20:
            return
        errors = len(routing_errors(net, sim.routing))
        if errors == 0 and stabilized_at is None:
            stabilized_at = sim.sim.round_count
        print(
            f"{sim.sim.step_count:>6} {sim.sim.round_count:>6} "
            f"{errors:>13} {sim.forwarding.bufs.total_occupied():>10} "
            f"{sim.ledger.generated_count:>10} "
            f"{sim.ledger.valid_delivered_count:>10}"
        )

    sim.run(100_000, halt=delivered_and_drained, before_step=dashboard)

    assert sim.ledger.all_valid_delivered()
    print()
    print(f"tables stabilized around round {stabilized_at}")
    print(f"all {sim.ledger.valid_delivered_count} messages delivered exactly once, "
          f"including those submitted while tables were wrong")


if __name__ == "__main__":
    main()
