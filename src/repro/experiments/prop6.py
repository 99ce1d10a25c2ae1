"""Experiment P6 — Proposition 6: the delay (waiting time before the first
emission) and the waiting time (between consecutive emissions) are
O(max(R_A, Δ^D)) rounds.

A processor wanting to generate competes for its own reception buffer with
up to Δ forwarding neighbors (``choice`` fairness bounds the bypass by Δ,
and each bypass costs one buffer-release, itself bounded by Proposition 5).
The experiment saturates a middle processor with through-traffic while it
tries to emit a stream of its own messages, and measures, in rounds:

* the delay of the *first* generation (request raised -> R1 executed), and
* the maximum waiting time between consecutive generations,

in both the correct-tables and the corrupted-tables regimes.
"""

from __future__ import annotations

from typing import Optional

from repro.app.workload import Workload
from repro.experiments.prop5 import run_to_delivery, with_bound
from repro.experiments.sweep import Row, Sweep, network_of, worst

#: Table label -> the saturated emitter: the middle of the path, any ring
#: node, the star's center, the center of the mesh.
EMITTERS = {"line(7)": 3, "ring(8)": 0, "star(8)": 0, "grid(3x3)": 4}


def run_one(topology: str, corrupted: bool, seed: int) -> Row:
    """Saturate the chosen emitter with through-traffic; measure its
    generation delay and waiting times."""
    net = network_of(topology)
    emitter = EMITTERS[topology]
    # The emitter streams 4 messages to a fixed remote destination
    # (the highest id != emitter) and every other processor sends 2
    # messages there too, so the flows cross the emitter's buffers.
    dest = net.n - 1 if emitter != net.n - 1 else net.n - 2
    subs = []
    for i in range(4):
        subs.append((0, emitter, f"own{i}", dest))
    for p in net.processors():
        if p in (emitter, dest):
            continue
        subs.append((0, p, f"bg{p}.0", dest))
        subs.append((0, p, f"bg{p}.1", dest))

    request_step: Optional[int] = None  # when the emitter first raised request

    def first_request(sim) -> None:
        nonlocal request_step
        if request_step is None and sim.hl.request[emitter]:
            request_step = sim.sim.step_count

    sim, clock, regime = run_to_delivery(
        net, Workload("saturation", subs), corrupted, seed, probe=first_request
    )
    # Generation steps of the emitter's own messages, in order.
    gen_steps = sorted(
        info[2]
        for info in map(sim.ledger.generation_info, sim.ledger.generated_uids())
        if info[0] == emitter
    )
    first_round = clock.round_of_step(gen_steps[0])
    delay = first_round - clock.round_of_step(request_step or 0)
    waits = [
        clock.round_of_step(b) - clock.round_of_step(a)
        for a, b in zip(gen_steps, gen_steps[1:])
    ]
    return {
        "topology": topology,
        **regime,
        "delay_rounds": delay,
        "max_wait_rounds": max(waits) if waits else 0,
        "generated": len(gen_steps),
    }


SWEEP = Sweep(
    title="P6 / Proposition 6 - generation delay and waiting time "
          "(rounds) under saturation, worst of seeds",
    run_one=run_one,
    axes={"topology": tuple(EMITTERS), "corrupted": (False, True)},
    seeds=(1, 2, 3),
    fold=worst(lambda row: row["delay_rounds"] + row["max_wait_rounds"]),
    derive=with_bound("bound", "delay_rounds", "max_wait_rounds"),
)
