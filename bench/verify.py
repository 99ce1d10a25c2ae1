"""The ``verify-small4`` workload: four complete exhaustive explorations.

Each instance is one ``ModelChecker(make, engine="snapshot",
reduction="none").run()``.  An exhaustive search has no random input, so
the seed only permutes the order of the instances and labels the payloads;
the state counts are pinned and must come out the same for every seed.
Four instances of about 2 s rather than the 45 s ``line(4)`` + 2 garbage
point keep a run under 30 s.
"""

from __future__ import annotations

import random
import resource
from time import perf_counter
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.app.higher_layer import HigherLayer
from repro.core.corruption import plant_invalid_message
from repro.core.invariants import InvariantChecker
from repro.core.ledger import DeliveryLedger
from repro.core.protocol import SSMFP
from repro.network.topologies import line_network, ring_network
from repro.routing.static import StaticRouting
from repro.verify import modelcheck
from repro.verify.modelcheck import ModelChecker

from bench import statemodel
from bench.tracing import Tracer, count, self_s, total_s

#: (instance name, factory of its initial configuration, pinned state count).
Instance = Tuple[str, Callable[[], SSMFP], int]

#: Far above the largest instance; reaching either truncates, which fails.
_MAX_STATES = 200_000
_MAX_SELECTION_WIDTH = 20_000


def _ssmfp(net) -> SSMFP:
    return SSMFP(net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger())


def _instances(size: int, tag: str) -> List[Instance]:
    """The four instances on ``size`` processors (4 at full size, 3 for
    ``--smoke``); ``far`` is the last processor of the line."""
    far = size - 1

    def crossing_garbage() -> SSMFP:
        proto = _ssmfp(line_network(size))
        plant_invalid_message(proto, far, 1, "R", f"{tag}g", last=0)
        proto.hl.submit(0, f"{tag}a", far)
        proto.hl.submit(far, f"{tag}b", 0)
        return proto

    def three_flows() -> SSMFP:
        proto = _ssmfp(line_network(size))
        proto.hl.submit(0, f"{tag}a", far)
        proto.hl.submit(far, f"{tag}b", 0)
        proto.hl.submit(1, f"{tag}c", 2)
        return proto

    def same_payload_pair() -> SSMFP:
        proto = _ssmfp(line_network(size))
        proto.hl.submit(0, f"{tag}dup", far)
        proto.hl.submit(0, f"{tag}dup", far)
        proto.hl.submit(far, f"{tag}b", 0)
        return proto

    def ring_three_flows() -> SSMFP:
        proto = _ssmfp(ring_network(size))
        for src in range(3):
            proto.hl.submit(src, f"{tag}r{src}", (src + 2) % size)
        return proto

    pinned = _PINNED_STATES[size]
    return [
        (f"line({size}) crossing flows + 1 garbage", crossing_garbage, pinned[0]),
        (f"line({size}) three flows", three_flows, pinned[1]),
        (f"line({size}) same-payload pair + reverse flow", same_payload_pair,
         pinned[2]),
        (f"ring({size}) three flows", ring_three_flows, pinned[3]),
    ]


#: Reachable states per instance, in :func:`_instances` order.
_PINNED_STATES = {
    4: (4_091, 5_702, 6_247, 4_808),
    3: (1_617, 4_625, 2_516, 1_478),
}


def prepare(params: Mapping[str, Any], seed: int) -> List[Instance]:
    """The instances in seed order."""
    instances = _instances(params["size"], tag=f"s{seed}-")
    random.Random(seed).shuffle(instances)
    return instances


def units(instances: List[Instance]) -> List[List[Instance]]:
    """What a ``--seconds`` child times one by one: each instance."""
    return [[instance] for instance in instances]


def instrument(tracer: Tracer) -> None:
    """Trace the verifier's layer boundaries."""
    statemodel.instrument(tracer)
    tracer.patch(ModelChecker, "run", "verify.modelcheck.run")
    tracer.patch(modelcheck, "expand_state", "verify.modelcheck.expand_state")
    tracer.patch(
        modelcheck, "enumerate_selections", "verify.modelcheck.enumerate_selections"
    )
    tracer.patch(modelcheck._System, "restore", "statemodel.snapshot.restore")
    tracer.patch(modelcheck._System, "snapshot", "statemodel.snapshot.snapshot")
    tracer.patch(modelcheck._System, "canon", "verify.modelcheck.canon")
    tracer.patch(InvariantChecker, "check", "core.invariants.check")


def run(instances: List[Instance], tracer: Optional[Tracer]) -> Dict[str, Any]:
    """Explore every instance, check verdicts and pinned counts, report."""
    started = perf_counter()
    results = [
        (
            name,
            pinned,
            ModelChecker(
                make,
                max_states=_MAX_STATES,
                max_selection_width=_MAX_SELECTION_WIDTH,
                engine="snapshot",
                reduction="none",
            ).run(),
        )
        for name, make, pinned in instances
    ]
    wall_s = perf_counter() - started
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = []
    failed = 0
    for name, pinned, result in results:
        failed += len(result.violations) + int(result.truncated)
        if not result.ok:
            problems.append(
                f"{name}: {result.note or result.violations[:2]}"
            )
        if result.terminal_states != 1:
            failed += 1
            problems.append(f"{name}: {result.terminal_states} terminal states")
        if result.states != pinned:
            failed += 1
            problems.append(f"{name}: {result.states} states, pinned {pinned}")
    states = sum(r.states for _, _, r in results)
    transitions = sum(r.transitions for _, _, r in results)
    exact = {
        "verify.modelcheck.states": states,
        "verify.modelcheck.transitions": transitions,
        "verify.modelcheck.dedup_hits": sum(r.dedup_hits for _, _, r in results),
        "verify.modelcheck.terminal_states": sum(
            r.terminal_states for _, _, r in results
        ),
        "verify.modelcheck.max_frontier": max(
            r.max_frontier for _, _, r in results
        ),
    }
    outcome: Dict[str, Any] = {
        "metrics": {
            "wall_s": wall_s,
            "states_per_s": states / wall_s,
            "work_per_s": states / wall_s,
            "peak_rss_mb": peak_rss_mb,
        },
        "exact": exact,
        "work": states,
        "run_s": wall_s,
        "attempted": states,
        "failed": failed,
        "problems": problems,
    }
    if tracer is not None:
        summary = tracer.summary()
        outcome["spans"] = summary
        outcome["layers"] = {
            **statemodel.shared_layers(summary),
            "verify.modelcheck.expand_s": total_s(
                summary, "verify.modelcheck.expand_state"
            ),
            "verify.modelcheck.expand_self_s": self_s(
                summary, "verify.modelcheck.expand_state"
            ),
            "verify.modelcheck.enumerate_selections_s": total_s(
                summary, "verify.modelcheck.enumerate_selections"
            ),
            "verify.modelcheck.canon_s": total_s(summary, "verify.modelcheck.canon"),
            # What run() does outside expand_state: seen-set and frontier.
            "verify.modelcheck.dedup_self_s": self_s(summary, "verify.modelcheck.run"),
            "verify.modelcheck.us_per_transition": 1e6 * wall_s / transitions,
            "statemodel.snapshot.restore_s": total_s(
                summary, "statemodel.snapshot.restore"
            ),
            "statemodel.snapshot.restores": count(
                summary, "statemodel.snapshot.restore"
            ),
            "statemodel.snapshot.snapshot_s": total_s(
                summary, "statemodel.snapshot.snapshot"
            ),
            "core.invariants.check_s": total_s(summary, "core.invariants.check"),
            "bench.trace_self_sum_ratio": statemodel.self_sum_ratio(
                summary, wall_s
            ),
        }
    return outcome
