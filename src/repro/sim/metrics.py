"""Metrics: latencies in steps and rounds, moves per delivery.

The paper's complexity statements are in *rounds*; the ledger records
*steps*.  :class:`RoundClock` rebuilds the step→round mapping from the
simulator's ``round_ends`` so both units are available.
"""

from __future__ import annotations

import bisect
from typing import Dict, List, Optional, Sequence, Set

from repro.core.ledger import DeliveryLedger


class RoundClock:
    """Step→round conversion built from every round's last step.

    Takes ``Simulator.round_ends``.  Round ``k`` (1-based) completes
    **at** the k-th round end: the step whose execution paid the round's
    last debt is the *last* step of round ``k``, and the following step
    opens round ``k+1``.  A step at or before the first round end is in
    round 1.
    """

    def __init__(self, round_ends: Sequence[int]) -> None:
        self._boundaries: List[int] = list(round_ends)

    def round_of_step(self, step: int) -> int:
        """The (1-based) round containing ``step``.  The k-th round end
        belongs to round ``k``, not ``k+1``."""
        return bisect.bisect_left(self._boundaries, step) + 1


def delivery_latency_rounds(
    ledger: DeliveryLedger, clock: RoundClock
) -> Dict[int, int]:
    """Map valid uid -> rounds from generation to delivery."""
    out: Dict[int, int] = {}
    for uid in _delivered_uids(ledger):
        gen = ledger.generation_info(uid)
        rec = ledger.delivery_record(uid)
        if gen is None or rec is None:
            continue
        out[uid] = clock.round_of_step(rec.step) - clock.round_of_step(gen[2])
    return out


def moves_per_delivery(
    rule_counts: Dict[str, int],
    delivered: int,
    forwarding_rules: Optional[Sequence[str]] = None,
) -> Optional[float]:
    """Forwarding moves divided by delivered messages; None when nothing
    was delivered.

    ``forwarding_rules`` names the rules that count as moves — pass the
    protocol's ``forwarding_rules`` attribute for a single-protocol run.
    The default is the union over every registered family member plus the
    baseline labels (``BF``/``NF``), which is correct whenever a run
    executes one protocol (rule labels are disjoint across the family)."""
    if delivered <= 0:
        return None
    if forwarding_rules is None:
        forwarding_rules = _default_forwarding_rules()
    wanted = set(forwarding_rules)
    moves = sum(
        count for rule, count in rule_counts.items() if rule in wanted
    )
    return moves / delivered


def _default_forwarding_rules() -> Set[str]:
    # Imported lazily: repro.core.registry imports the protocol classes,
    # and metrics must stay importable from anywhere in the stack.
    from repro.core.registry import PROTOCOLS

    rules: Set[str] = {"BF", "NF"}
    for cls in PROTOCOLS.values():
        rules.update(cls.forwarding_rules)
    return rules


def amortized_rounds_per_delivery(
    total_rounds: int, delivered: int
) -> Optional[float]:
    """The paper's amortized measure (Proposition 7): rounds of the
    execution divided by messages delivered during it."""
    if delivered <= 0:
        return None
    return total_rounds / delivered


def _delivered_uids(ledger: DeliveryLedger) -> List[int]:
    # Ask the ledger directly: the old "generated minus outstanding" scan
    # over range(1, generated_count + 1) silently dropped uids whenever the
    # ledger's uid space was non-contiguous (strict-mode violations, merged
    # ledgers, externally assigned uids).
    return ledger.delivered_uids()
