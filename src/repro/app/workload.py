"""Workload generators.

A :class:`Workload` is a finite, deterministic list of submissions
``(at_step, source, payload, dest)`` that the simulation runner feeds into
the higher layer.  Generators cover the traffic patterns the experiments
need: uniform random, permutation (every processor sends to a distinct
peer), hotspot (everyone converges on one destination — the contention
pattern behind the Δ^D worst case), bursts, a single probe message, and the
adversarial pattern where consecutive messages carry *identical payloads*
(the duplication/merge hazard the color flag exists for).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Tuple

from repro.errors import ConfigurationError
from repro.types import DestId, ProcId

#: One submission: (step at which it is handed to the outbox, source,
#: payload, destination).
Submission = Tuple[int, ProcId, Any, DestId]


@dataclass
class Workload:
    """A named, finite list of submissions sorted by step."""

    name: str
    submissions: List[Submission] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.submissions.sort(key=lambda s: (s[0], s[1]))
        for _, src, _, dest in self.submissions:
            if src == dest:
                raise ConfigurationError(
                    "workloads must not contain self-addressed messages "
                    f"(source == dest == {src}); the higher layer delivers "
                    "those locally without entering the network"
                )

    @property
    def size(self) -> int:
        """Total number of submissions."""
        return len(self.submissions)

    def due(self, step: int) -> List[Submission]:
        """Submissions scheduled exactly at ``step``."""
        return [s for s in self.submissions if s[0] == step]


def _other(rng: random.Random, n: int, src: ProcId) -> DestId:
    dest = rng.randrange(n - 1)
    return dest if dest < src else dest + 1


def single_message_workload(source: ProcId, dest: DestId, payload: Any = "m") -> Workload:
    """One probe message at step 0 — the Proposition-5 measurement unit."""
    return Workload("single", [(0, source, payload, dest)])


def uniform_workload(n: int, count: int, seed: int, spread_steps: int = 0) -> Workload:
    """``count`` messages with uniformly random distinct (source, dest)
    pairs, submitted over ``spread_steps + 1`` initial steps."""
    if n < 2:
        raise ConfigurationError("uniform workload needs n >= 2")
    rng = random.Random(seed)
    subs: List[Submission] = []
    for i in range(count):
        src = rng.randrange(n)
        dest = _other(rng, n, src)
        at = rng.randrange(spread_steps + 1)
        subs.append((at, src, f"u{i}", dest))
    return Workload("uniform", subs)


def permutation_workload(n: int, seed: int) -> Workload:
    """Every processor sends one message; destinations form a random
    derangement-ish permutation (fixed points redirected)."""
    if n < 2:
        raise ConfigurationError("permutation workload needs n >= 2")
    rng = random.Random(seed)
    perm = list(range(n))
    rng.shuffle(perm)
    subs: List[Submission] = []
    for src in range(n):
        dest = perm[src]
        if dest == src:
            dest = perm[(src + 1) % n]
            if dest == src:  # n == 1 impossible here; double fixed point
                dest = (src + 1) % n
        subs.append((0, src, f"p{src}", dest))
    return Workload("permutation", subs)


def hotspot_workload(n: int, dest: DestId, per_source: int, seed: int) -> Workload:
    """Every other processor sends ``per_source`` messages to ``dest`` —
    maximal contention on one destination component."""
    if n < 2:
        raise ConfigurationError("hotspot workload needs n >= 2")
    subs: List[Submission] = []
    for src in range(n):
        if src == dest:
            continue
        for i in range(per_source):
            subs.append((0, src, f"h{src}.{i}", dest))
    return Workload("hotspot", subs)


def hotspot_per_source(messages: int, n: int) -> int:
    """The ``per_source`` at which a hotspot workload on ``n`` processors
    offers about ``messages`` messages (at least one per source) — how the
    CLI, a live cluster and the congestion study size a hotspot from one
    message count."""
    return max(1, messages // max(n - 1, 1))


def sized_workload_kwargs(name: str, messages: int, n: int) -> Dict[str, int]:
    """The kwargs with which workload ``name`` on ``n`` processors offers
    about ``messages`` messages: the one rule by which ``repro simulate``
    and a live cluster size a workload from a message count."""
    if name == "uniform":
        return {"count": messages}
    if name == "hotspot":
        return {"dest": 0, "per_source": hotspot_per_source(messages, n)}
    raise ConfigurationError(
        f"unknown workload {name!r} for a live cluster, which sizes its "
        f"workload from 'messages' alone; supported: ['hotspot', 'uniform']"
    )


def flood_total(events: Iterable[Any]) -> int:
    """Messages a chaos schedule's ``flood`` events submit on top of the
    workload: every target counts them toward its delivery target."""
    return sum(e.kwargs["count"] for e in events if e.action == "flood")


def event_rng(seed: int, index: int) -> random.Random:
    """The random stream of schedule event ``index`` in a run seeded
    ``seed``: every target draws the same one, so a ``link_flap`` picks
    the same edges on each."""
    return random.Random(seed * 1_000_003 + index)


def burst_workload(
    n: int, bursts: int, burst_size: int, gap: int, seed: int
) -> Workload:
    """``bursts`` waves of ``burst_size`` random messages, ``gap`` steps
    apart — exercises generation under a draining network."""
    if n < 2:
        raise ConfigurationError("burst workload needs n >= 2")
    rng = random.Random(seed)
    subs: List[Submission] = []
    for b in range(bursts):
        at = b * gap
        for i in range(burst_size):
            src = rng.randrange(n)
            dest = _other(rng, n, src)
            subs.append((at, src, f"b{b}.{i}", dest))
    return Workload("burst", subs)


def adversarial_same_payload_workload(
    source: ProcId, dest: DestId, count: int
) -> Workload:
    """``count`` consecutive messages from the same source to the same
    destination, all carrying the *identical* payload — the merge hazard the
    paper's color flag must defeat (exactly-once is then only checkable via
    hidden uids)."""
    if source == dest:
        raise ConfigurationError("source and dest must differ")
    return Workload(
        "same-payload", [(0, source, "dup", dest) for _ in range(count)]
    )


def workload_by_name(name: str, n: int, seed: int, **kwargs) -> Workload:
    """Build a workload from a string name (the spec schema's vocabulary).

    ``n`` and ``seed`` reach the generators that draw endpoints over the
    whole network; ``single`` and ``same_payload`` name their endpoints in
    ``kwargs`` and take neither.  A missing or misspelt kwarg is the
    generator's own ``TypeError``.
    """
    builders = {
        "uniform": uniform_workload,
        "permutation": permutation_workload,
        "hotspot": hotspot_workload,
        "burst": burst_workload,
        "single": single_message_workload,
        "same_payload": adversarial_same_payload_workload,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; known: {sorted(builders)}"
        ) from None
    if name in ("single", "same_payload"):
        return builder(**kwargs)
    return builder(n, seed=seed, **kwargs)
