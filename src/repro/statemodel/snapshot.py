"""The explicit snapshot/restore state layer.

The exhaustive verifiers (:mod:`repro.verify`) explore the reachable
configuration graph of small instances.  Doing that by ``copy.deepcopy``-ing
the whole system per transition is correct but slow — the copy walks every
object of every layer, including immutable networks, caches and notifier
wiring, and the canonicalization then re-reads the same state a second
time.  This module defines the protocol that replaces it:

``snapshot() -> StateVector``
    Return a compact, immutable (nested-tuple) vector of *every* piece of
    mutable state the component owns that can influence future behavior or
    canonicalization.  Caches and derived indexes (occupancy counts,
    component dirty sets, ``next_hop`` caches) are **excluded**: they are
    rebuilt or repaired on restore.  Immutable values (frozen
    :class:`~repro.statemodel.message.Message` instances, delivery records)
    are shared by reference, never copied.

``restore(vec) -> None``
    Bring the component back to exactly the state captured by ``vec``.
    Restore is a *diffing* write: only cells that actually differ from the
    current configuration are written, and every real write goes through
    the same change notifiers as protocol execution.  That last property is
    what lets the verifiers keep the component-granular incremental engine
    of the simulator engaged: after a restore, the components whose guard
    inputs changed since the previously evaluated configuration are dirty,
    and ``enabled_actions`` re-evaluates only those.

Anchor and journal
------------------
An exhaustive search restores the same parent vector once per daemon
selection, and a transition writes two or three cells.  So each component
remembers the vector it was last restored to — its **anchor** — and what
it has written since:

* ``ForwardingBuffers``, ``LazyChoiceTable`` and
  ``SelfStabilizingBFSRouting`` keep a **journal** ``{cell: value at the
  anchor}``, filled by their mutators at the first write of a cell (the
  choice table journals a queue whose *content* changes — a reorder that
  keeps the head fires no notification, so the journal hooks the mutation,
  not the notifier).  ``restore(anchor)`` undoes the journal, O(written);
  ``restore(other)`` is the full diff against the whole store and
  re-anchors.  The choice is made by what the code observes — ``vec is``
  the anchor — never by an option.
* ``HigherLayer``, ``DeliveryLedger`` and ``MessageFactory`` have few
  mutators and no cell structure: every mutator (including the
  out-of-band ones: ``hl.request[p] = ...``, a non-strict ledger's
  ``_flag``) simply **drops** the anchor, ``restore(anchor)`` is a no-op
  and ``restore(other)`` rebuilds.
* ``snapshot()`` of a component that wrote nothing returns the anchor
  object itself, so a child vector shares by identity every sub-vector
  its transition left alone (and ``_System.canon`` reuses its ledger
  projection on ``ledger_vec is`` the previous one).  The buffers and the
  choice table, having written, patch the anchor with their journaled
  cells rather than re-sorting the store.

Journals are armed by the first ``restore()``.  A simulation never
restores: it pays one ``is not None`` test per write and holds nothing.

Quiet return to the anchor
--------------------------
``ForwardingProtocol.restore`` leaves behind a cache state — component
entries plus pending dirt — that is exact for the anchor.  As long as no
guard has been evaluated (``component_evals`` unchanged) and no routing
entry has moved since, it still is, whatever was executed in between: so
the way back is *quiet* — a plain undo (``ForwardingBuffers.undo``,
``LazyChoiceTable.undo``: journaled cells and queue lists stored straight
back, occupancy exact, no notifier called; the higher layer's undo
notifies, and marks nothing) after which the dirt saved at the anchor is
what is pending (components priority-masked by a routing layer stay
dirty until the mask lifts).  Any *other* vector is reached through the
anchor: quiet road home, then the full diff through the notifiers, so a
popped state re-evaluates diff(previous anchor → it), not the union of
every sibling's writes.  If guards were evaluated while away, or
routing moved, the undo takes the ordinary marking path.

The verifier's transition is an **excursion**: ``_System.successors``
opens one (``ForwardingProtocol.begin_excursion``) right after restoring
the parent, because the next restore takes back everything it does.  On
an excursion the forwarding sinks keep filling the re-sync set (the
environment phase needs it) but mark no component dirt — dirt the quiet
return would only drop.  Two ways out stay exact: a way home that cannot be
quiet first undoes the excursion through the notifiers, so its writes
are marked after all; and guards read before any restore drain
``dirty_after`` first, which drops the component cache so every
processor is rebuilt.  Only ``successors`` opens an excursion, so the
simulator never runs one.

Contract
--------
* ``restore(snapshot())`` is a no-op (no writes, no notifications beyond
  over-approximation; observable state unchanged).
* ``snapshot()`` after ``restore(vec)`` equals ``vec`` (round-trip
  identity) — pinned per component in ``tests/test_snapshot_state.py``,
  where a seeded random walk also compares the anchored restore with a
  fresh system brought to the same vector by the full diff.
* A vector is **captured after the environment phase** (``advance_env``),
  when every ``choice`` queue is reconciled with its candidate set; that
  is why nothing is left to re-sync after *any* restore
  (``ForwardingProtocol._resync`` is empty) — a vector captured mid-step
  would lose its pending reconciliations.
* A vector is the whole configuration: a routing provider outside the
  protocol stack must be immutable, and the routing rows have one way
  in, ``SelfStabilizingBFSRouting.set_entry`` — the corruption helpers
  and the fault drivers included — so the routing journal is never
  stale.
* Vectors are plain nested tuples: hashable when the payloads are, cheap
  to store by the hundred-thousand, and directly usable as the source of
  the verifier's canonical form (``_System.canon`` is a *projection* of
  the state vector, so canonicalization and restoration can never
  diverge).
* The canon projection must be **history-free and orbit-stable**: a
  vector canonicalizes identically whether the producing system
  materialized (or evicted) sparse rows on the way there or never
  allocated them (``tests/test_canon_stability.py``), and every
  collection inside the canon is ordered by a processor-stable rule
  (sorted, or by an order that commutes with processor permutation) so
  the symmetry reducer's algebraic ``permute_canon`` lands in the same
  deterministic form the search itself produces
  (``repro/verify/reduction.py``).

Implementors: :class:`~repro.core.buffers.ForwardingBuffers`,
:class:`~repro.core.choice.FairChoiceQueue` and
:class:`~repro.core.choice.LazyChoiceTable`,
:class:`~repro.core.ledger.DeliveryLedger`,
:class:`~repro.app.higher_layer.HigherLayer`,
:class:`~repro.statemodel.message.MessageFactory`,
:class:`~repro.core.protocol.SSMFP`,
:class:`~repro.routing.selfstab_bfs.SelfStabilizingBFSRouting`,
:class:`~repro.routing.static.StaticRouting` (vacuously — immutable), the
:class:`~repro.statemodel.protocol.Protocol` base (default: stateless) and
:class:`~repro.statemodel.composition.PriorityStack` (layer aggregation).
See ``docs/verify.md`` for the explorer architecture built on top.
"""

from __future__ import annotations

from typing import Any, Tuple

#: A component's full mutable state as an immutable nested tuple.  The
#: concrete shape is private to each component; callers treat vectors as
#: opaque values that only :meth:`restore` (of the component that produced
#: them) understands.
StateVector = Tuple[Any, ...]

#: The state vector of a component with no mutable state (and the default
#: for protocols that do not override :meth:`Protocol.snapshot`).
EMPTY_STATE: StateVector = ()
