"""State-space reduction for the exhaustive verifiers.

Two sound reductions over the canonical forms produced by
``_System.canon`` (see ``repro/verify/modelcheck.py``):

**Symmetry reduction** quotients the seen-set by processor-permutation
orbits.  A candidate permutation must survive three validations against
the concrete instance before it is used (:func:`validate_symmetry`):

1. it is a graph automorphism of the topology
   (:func:`repro.network.properties.automorphisms`);
2. the routing service is *equivariant* under it —
   ``next_hop(pi(q), pi(d)) == pi(next_hop(q, d))`` for every pair — which
   filters out automorphisms broken by deterministic tie-breaks (e.g. the
   smallest-id next hop on even rings);
3. the *initial configuration* is invariant under it (modulo uid
   relabeling), so every reachable orbit has a reachable representative.

The surviving set is a subgroup (all three properties are closed under
composition and inverse).  The orbit representative of a canon is the
minimum over the group of the permuted canon after **canonical uid
relabeling** (:func:`relabel_uids`): message uids are minted by a global
counter, so two symmetric executions label "the same" message differently;
relabeling by first occurrence in the canon's deterministic traversal
makes the representative label-free.  Relabeling by a sign-preserving
bijection is sound because nothing in the invariant checker or the canon
compares uid *values* across configurations — the ledger accounts are
sets and counts, and the protocol never orders uids.

**Partial-order reduction** drops daemon selections that decompose into
independent parts: a selection whose conflict graph is disconnected is
equivalent to running its connected components in separate consecutive
steps, and every component is itself a selection the checker explores —
so pruning the composite preserves the reachable canon set *exactly*
(state count included; only transition edges are dropped).  Two selected
actions conflict when

* both are generations (rule R1) — they race the global uid counter;
* either has no ``dest`` tag (the safety fallback: such an action
  conflicts with everything); or
* either comes from a higher-priority stack layer and their closed
  neighborhoods intersect (a higher-layer write can flip the priority
  mask of any neighbor, for any destination); or
* they address intersecting destination sets *and* their processors are
  neighbors.  A generation's destination set also includes the *next*
  queued destination of its outbox, because consuming the request
  re-raises it for that destination in the following environment phase.

The last rule is the PR 3 locality contract read twice.  An action at
``p`` for ``d`` writes only ``p``'s own variables; the environment phase
after it re-raises ``request_p`` and re-syncs the ``choice`` queue of
``p``'s next hop for ``d``, a neighbor.  A guard at ``q`` for ``d'``
reads only component ``d'`` of ``N_q ∪ {q}``.  So an action at ``q``
sees what ``p`` wrote only when ``q`` is a neighbor of ``p`` and the two
share a destination.  One case keeps the wider closed-neighborhood test:
a pair where either action's singleton selection raised (a strict-ledger
violation), since no transition of that action was explored.

The environment phase must be idempotent for the decomposition argument
(running it once after the composite step must equal running it after
each component).  That holds for every choice policy except
``aged_fair``, whose per-step full reconciliation ages waiting counters
once per environment phase — callers disable POR there
(:class:`repro.verify.modelcheck.ModelChecker` does, with a note).
"""

from __future__ import annotations

from typing import AbstractSet, Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.core.buffers import cell_order
from repro.network.properties import automorphisms

Canon = Tuple
Perm = Tuple[int, ...]


# -- canon permutation and uid relabeling ------------------------------------


def permute_canon(canon: Canon, perm: Perm) -> Canon:
    """Apply a processor permutation to every processor-indexed field of a
    canon.  Only valid for canons with empty higher-layer extras (the
    validation in :func:`validate_symmetry` guarantees it)."""
    buffers, queues, app, extras, accounts = canon
    if any(extra != () for extra in extras):
        raise ValueError("cannot permute a canon with non-empty extras")
    new_buffers = tuple(sorted(
        (
            (perm[d], perm[p], kind, payload, perm[last], color, uid)
            for d, p, kind, payload, last, color, uid in buffers
        ),
        key=cell_order,
    ))
    new_queues = tuple(sorted(
        (
            perm[d],
            perm[p],
            (
                tuple(perm[q] for q in order),
                tuple(sorted((perm[q], age) for q, age in waits)),
            ),
        )
        for d, p, (order, waits) in queues
    ))
    outboxes, raised = app
    new_app = (
        tuple(sorted(
            (perm[p], tuple((payload, perm[dest]) for payload, dest in items))
            for p, items in outboxes
        )),
        tuple(sorted(perm[p] for p in raised)),
    )
    return (new_buffers, new_queues, new_app, extras, accounts)


def relabel_uids(canon: Canon) -> Canon:
    """Renumber uids canonically: valid uids become ``1, 2, ...`` and
    invalid uids ``-1, -2, ...`` in first-occurrence order over the
    canon's deterministic traversal (buffers in storage order, then the
    outstanding account ascending).  A sign-preserving uid bijection is a
    bisimulation of the instance (see module docstring), so members of
    one orbit relabel identically."""
    buffers, queues, app, extras, accounts = canon
    outstanding, generated, delivered, invalid = accounts
    mapping: Dict[int, int] = {}
    next_valid, next_invalid = 1, -1
    for entry in buffers:
        uid = entry[6]
        if uid not in mapping:
            if uid > 0:
                mapping[uid] = next_valid
                next_valid += 1
            else:
                mapping[uid] = next_invalid
                next_invalid -= 1
    for uid in outstanding:
        if uid not in mapping:
            if uid > 0:
                mapping[uid] = next_valid
                next_valid += 1
            else:
                mapping[uid] = next_invalid
                next_invalid -= 1
    new_buffers = tuple(
        entry[:6] + (mapping[entry[6]],) for entry in buffers
    )
    new_accounts = (
        tuple(sorted(mapping[uid] for uid in outstanding)),
        generated, delivered, invalid,
    )
    return (new_buffers, queues, app, extras, new_accounts)


def canon_order_key(canon: Canon) -> str:
    """A total, process-stable order over canons.  ``repr`` of a canon is
    deterministic (canons are pure nested builtins) and — unlike raw tuple
    comparison — never hits cross-type comparisons on heterogeneous
    payloads.  Used to pick orbit minima and to shard canons by hash."""
    return repr(canon)


class SymmetryReducer:
    """Maps canons to orbit representatives under a validated group."""

    __slots__ = ("perms",)

    def __init__(self, perms: Sequence[Perm]) -> None:
        if not perms:
            raise ValueError("need at least the identity permutation")
        self.perms: Tuple[Perm, ...] = tuple(tuple(p) for p in perms)

    @property
    def group_size(self) -> int:
        return len(self.perms)

    def representative(self, canon: Canon) -> Canon:
        """The orbit minimum of ``relabel_uids(permute_canon(canon, pi))``
        over the group — stable under permutation of the input, so two
        symmetric configurations dedup to the same seen-set entry."""
        best: Optional[Canon] = None
        best_key: Optional[str] = None
        for perm in self.perms:
            cand = relabel_uids(permute_canon(canon, perm))
            key = canon_order_key(cand)
            if best_key is None or key < best_key:
                best, best_key = cand, key
        return best


def _routing_equivariant(proto, perm: Perm) -> bool:
    n = proto.net.n
    routing = proto.routing
    for q in range(n):
        for d in range(n):
            if q == d:
                continue
            if perm[routing.next_hop(q, d)] != routing.next_hop(perm[q], perm[d]):
                return False
    return True


def validate_symmetry(proto, root_canon: Canon):
    """Build a :class:`SymmetryReducer` for an instance, or explain why
    symmetry reduction does not apply.

    Returns ``(reducer, note)``.  ``reducer`` is None when the instance
    disqualifies itself entirely (non-empty higher-layer state — those
    vectors use identity-dependent sparse encodings that are not
    permutation-equivariant); otherwise the reducer holds every candidate
    automorphism that is routing-equivariant and fixes the initial canon
    modulo uid relabeling (always at least the identity, whose
    "reduction" is the uid-relabel quotient alone).  ``note`` reports the
    group size or the disqualification reason.
    """
    extras = root_canon[3]
    if any(extra != () for extra in extras):
        return None, (
            "symmetry off: higher-priority layer state is non-empty "
            "(sparse fixpoint-relative vectors are not permutation-"
            "equivariant)"
        )
    root_rep = relabel_uids(root_canon)
    valid: List[Perm] = []
    for perm in automorphisms(proto.net):
        if not _routing_equivariant(proto, perm):
            continue
        if relabel_uids(permute_canon(root_canon, perm)) != root_rep:
            continue
        valid.append(perm)
    reducer = SymmetryReducer(valid)
    return reducer, f"symmetry group size {reducer.group_size}"


# -- partial-order reduction --------------------------------------------------


class IndependenceOracle:
    """Per-instance conflict analysis for daemon selections.

    Built once per exploration; :meth:`admissible` is called per parent
    state with the enabled-action table *while the system is in the
    parent configuration* (a generation's destinations peek at the
    outbox)."""

    __slots__ = ("_closed", "_proto_name", "_generation_rule", "_hl")

    def __init__(self, proto) -> None:
        net = proto.net
        self._closed: List[FrozenSet[int]] = [
            frozenset((p,) + tuple(net.neighbors(p)))
            for p in net.processors()
        ]
        self._proto_name = proto.name
        # The family's declared generation (starting) rule — generations
        # race the global uid counter, so the oracle treats them specially.
        self._generation_rule = getattr(proto, "generation_rule", "R1")
        self._hl = proto.hl

    def _features(self, pid: int, action, raised: bool):
        dest = action.dest
        generation = action.rule == self._generation_rule
        upper = action.protocol != self._proto_name
        dests: Optional[Set[int]]
        if dest is None:
            dests = None  # no dest tag: conflicts with everything
        else:
            dests = {dest}
            if generation:
                queued = self._hl.queued_destinations(pid)
                if len(queued) > 1:
                    # Consuming the request re-raises it for the next
                    # queued destination in the following env phase.
                    dests.add(queued[1])
        return (pid, self._closed[pid], dests, generation, upper, raised)

    @staticmethod
    def _conflict(a, b) -> bool:
        pid_a, closed_a, dests_a, gen_a, upper_a, raised_a = a
        pid_b, closed_b, dests_b, gen_b, upper_b, raised_b = b
        if gen_a and gen_b:
            return True  # generations race the global uid counter
        if dests_a is None or dests_b is None:
            return True  # no dest tag: safety fallback
        if upper_a or upper_b:
            # A higher-layer write can flip the priority mask of any
            # neighbor for any destination.
            return bool(closed_a & closed_b)
        if not dests_a & dests_b:
            return False
        if raised_a or raised_b:
            return bool(closed_a & closed_b)
        return pid_b in closed_a  # neighbors: a selection holds p != q

    def admissible(
        self,
        selection: Dict[int, int],
        enabled,
        raised: AbstractSet[Tuple[int, int]],
    ) -> bool:
        """True iff the selection's conflict graph is connected — i.e. it
        does *not* decompose into independent parts already covered by
        smaller selections.  ``raised`` holds the ``(pid, action_index)``
        of every singleton selection whose execution raised."""
        if len(selection) == 1:
            return True
        feats = [
            self._features(pid, enabled[pid][index], (pid, index) in raised)
            for pid, index in selection.items()
        ]
        k = len(feats)
        # Connectivity via BFS over pairwise conflicts.
        seen = {0}
        stack = [0]
        while stack:
            i = stack.pop()
            for j in range(k):
                if j in seen:
                    continue
                if self._conflict(feats[i], feats[j]):
                    seen.add(j)
                    stack.append(j)
        return len(seen) == k
