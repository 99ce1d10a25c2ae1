"""The six workloads, as data.

Names are stable: result files, ``BENCHMARK.json`` and ``--compare`` key on
them.  Every workload is a **closed batch** — the whole input is handed
over up front, because neither ``Simulation`` nor ``run_cluster`` has a
paced front door — so the end-to-end figure is work per second at the
stated size, not a rate under a latency limit.  Sizes are fixed for a
2-core shared box: one load-generating process, no worker pools, loopback
only.  Each workload has three: ``full`` (``python -m bench``, a rep of
5-10 s), ``steady`` (the ``BENCHMARK.json`` contract, a rep of 1-2 s so
that a run holds many) and ``smoke``.

This module imports nothing from ``repro``; the module named by
``substrate`` (``bench.sim``, ``bench.rt``, ``bench.verify``) turns the
parameters plus a seed into the objects the program under test receives.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Mapping

#: Runtime knobs shared by both ``rt-*`` workloads (RUNTIME.txt's clean-tcp
#: row uses the same tick / retry settings).
_RT_COMMON = {
    "topology": {"name": "ring", "kwargs": {"n": 8}},
    "tick": 0.002,
    "retry_base": 0.03,
    "retry_cap": 0.2,
}


FULL, STEADY, SMOKE = "full", "steady", "smoke"


@dataclass(frozen=True)
class Workload:
    """One named workload: which substrate runs it, at what size, and why
    it is in the set."""

    name: str
    substrate: str
    #: One line (at most 200 characters: it is copied into BENCHMARK.json).
    why: str
    params: Mapping[str, Any]
    #: Overrides applied by ``--smoke`` (sizes ÷ 20, same code path).
    smoke: Mapping[str, Any] = field(default_factory=dict)
    #: Overrides of the ``BENCHMARK.json`` contract (sizes ÷ 4–5, same code
    #: path): a rep of 1–2 s, so that a 16 s run holds many and can report
    #: its best one (see the README, "Noise on this box").
    steady: Mapping[str, Any] = field(default_factory=dict)

    def sized(self, size: str) -> Dict[str, Any]:
        """The parameters at ``full``, ``steady`` or ``smoke`` size."""
        return {**self.params, **({} if size == FULL else getattr(self, size))}


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "sim-churn",
            "sim",
            "30% corrupted routing on a ring: routing.selfstab_bfs guard "
            "evals and RTfix repairs dominate, forwarding rules do little",
            {
                "topology": {"name": "ring", "kwargs": {"n": 128}},
                "messages": 256,
                "spread_steps": 1200,
                "corrupt_fraction": 0.3,
            },
            {
                "topology": {"name": "ring", "kwargs": {"n": 32}},
                "messages": 13,
                "spread_steps": 60,
            },
            {
                "topology": {"name": "ring", "kwargs": {"n": 64}},
                "messages": 128,
                "spread_steps": 600,
            },
        ),
        Workload(
            "sim-trickle",
            "sim",
            "sparse traffic on grid(16,16), a message every 10 steps: ~3.5 moves "
            "a step, so per-step fixed cost (scheduler, env phase, halt) dominates",
            {
                "topology": {"name": "grid", "kwargs": {"rows": 16, "cols": 16}},
                "messages": 4000,
                "spread_steps": 40000,
                "corrupt_fraction": 0.0,
            },
            {
                "topology": {"name": "grid", "kwargs": {"rows": 4, "cols": 4}},
                "messages": 200,
                "spread_steps": 2000,
            },
            {"messages": 800, "spread_steps": 8000},
        ),
        Workload(
            "sim-dense",
            "sim",
            "same grid, 15 messages a step: few steps of 50-70 moves each, "
            "so per-component guard and choice-queue work dominates",
            {
                "topology": {"name": "grid", "kwargs": {"rows": 16, "cols": 16}},
                "messages": 3000,
                "spread_steps": 200,
                "corrupt_fraction": 0.0,
            },
            {
                "topology": {"name": "grid", "kwargs": {"rows": 4, "cols": 4}},
                "messages": 150,
                "spread_steps": 10,
            },
            {"messages": 750, "spread_steps": 50},
        ),
        Workload(
            "rt-clean-tcp",
            "rt",
            "loss-free loopback TCP on ring(8): lane fast path, batched codec, "
            "TcpTransport, and the conformance verdict over every event",
            {**_RT_COMMON, "transport": "tcp", "messages": 100_000, "netem": None},
            {"messages": 5_000},
            {"messages": 20_000},
        ),
        Workload(
            "rt-soak-local",
            "rt",
            "2% loss/dup/reorder on the in-memory transport: lane slow path "
            "(SACK, RTO), 1 record/frame, TCP code bypassed",
            {
                **_RT_COMMON,
                "transport": "local",
                "messages": 40_000,
                "netem": {
                    "loss": 0.02,
                    "dup": 0.02,
                    "reorder": 0.02,
                    "latency": [0.0, 0.001],
                },
            },
            {"messages": 2_000},
            {"messages": 16_000},
        ),
        Workload(
            "verify-small4",
            "verify",
            "four exhaustive explorations (20,848 states): snapshot/restore, "
            "canon+dedup and invariants, which sim-* never calls, over shared guards",
            {"size": 4},
            {"size": 3},
        ),
    )
}
