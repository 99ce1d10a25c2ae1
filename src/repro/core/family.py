"""The protocol-family seam: everything shared by the journal's forwarding
protocols, lifted out of the concrete rule sets.

The journal version of the source paper (arXiv:0905.2540) presents *two*
snap-stabilizing message-forwarding protocols with different buffer /
fairness trade-offs, and the tree/linear variants restrict them further.
They all share the same substrate: per-(processor, destination) buffers
with change notifiers, ``choice`` fairness queues, a color procedure, a
delivery ledger, routing through a :class:`~repro.routing.RoutingService`,
and — in this reproduction — the incremental enabled-set engine, the
snapshot/restore state layer and the exhaustive verifiers.

:class:`ForwardingProtocol` is that substrate as an explicit contract.  A
concrete protocol (``repro.core.protocol.SSMFP``,
``repro.core.protocol2.SSMFP2``) declares:

* ``name`` — the label stamped on actions, obs rows and arena tables;
* ``evaluate`` / ``rule_order`` — the rule set as one evaluator
  ``(proto, p, d) -> List[Action]`` that reads ``p``'s cells of component
  ``d`` once and answers the enabled rules as action records, and the
  labels it can answer, in guard-evaluation order.
  **Liveness**: no rule is enabled at ``(p, d)`` while ``p`` holds no
  buffer and no queued requester in ``d`` (``bufR_p(d)``, ``bufE_p(d)``
  empty and ``choice_p(d)`` empty) — the evaluator answers ``[]`` there
  from its own three reads, and the engine does not dirty such a
  component when a neighbor writes;
* ``generation_rule`` — the label of the starting action (the verifier's
  partial-order reduction treats generations specially: they race the
  global uid counter);
* ``forwarding_rules`` — the labels counted as forwarding *moves* by
  :func:`repro.sim.metrics.moves_per_delivery`;
* ``buffer_kinds`` — which planes of :class:`ForwardingBuffers` the
  protocol uses (``("R", "E")`` for the two-buffer scheme, ``("R",)`` for
  the fused single-buffer scheme); the corruption helpers plant garbage
  only into planes the rules can drain;
* ``offer_kind`` — the plane whose writes change neighbors' candidate
  sets (drives incremental ``choice``-queue reconciliation);
* :meth:`offered_message` — the message a neighbor is currently offering
  for forwarding (the candidate predicate and the aged-policy priority);
* ``runtime_window_cap`` — the per-lane pipelining the live runtime may
  use while staying faithful to the protocol's buffer budget.

Everything else — the incremental dirty-component machinery (PR 1/3), the
sparse lazy queues (PR 7), snapshot/restore (PR 4) — lives here once and
is inherited.

Incremental engine
------------------
Every guard of either protocol at processor ``p`` for destination ``d``
reads only *component ``d``* in the closed neighborhood of ``p``: ``p``'s
own buffers and queue head for ``d``, its neighbors' component-``d``
buffers, ``request_p`` (which concerns exactly one destination), and
``nextHop`` entries for ``d`` at ``p`` and its neighbors (``last``-hop
fields are always in ``N_p ∪ {p}`` — enforced by the corruption helpers).
The family therefore opts into the simulator's dirty-set protocol at
*component* granularity: all buffer, queue, request and routing mutations
flow through notifier hooks that dirty ``(q, d)`` pairs — the writer's own
component and, by the liveness line of the contract, those of its *live*
neighbors only (single destination) — rule-produced action lists are
cached per component and reconciled only when dirty, and a processor's
enabled list is assembled from its non-empty component entries in
O(occupied components) (:mod:`repro.statemodel.components`).
:meth:`dirty_after` reports the processor projection of the component
dirt.  The same notifications drive *incremental queue reconciliation*:
``before_step`` re-syncs only the ``choice`` queues whose candidate sets
may have changed instead of sweeping every active component (the
``aged_fair`` policy is the exception — its wait-ages tick once per
reconciliation, so it keeps the full per-step sweep; queue-head
notifications keep guard caching exact even then).  ``next_hop`` lookups
are cached per ``(d, p)`` and invalidated through the routing observer,
so ``candidates()`` stops re-querying the routing service per neighbor
per step.  See ``docs/engine.md`` for the per-rule locality argument and
``docs/protocols.md`` for the family contract.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.app.higher_layer import HigherLayer
from repro.core.buffers import ForwardingBuffers
from repro.core.choice import LazyChoiceTable
from repro.core.colors import free_color
from repro.core.ledger import DeliveryLedger
from repro.network.graph import Network
from repro.network.properties import max_degree
from repro.routing.table import RoutingService
from repro.statemodel.action import Action
from repro.statemodel.components import ComponentDirtyCache
from repro.statemodel.message import Message, MessageFactory
from repro.statemodel.protocol import Protocol
from repro.statemodel.snapshot import StateVector
from repro.types import Color, DestId, ProcId


class ForwardingProtocol(Protocol):
    """Base class of the snap-stabilizing forwarding-protocol family."""

    tracks_components = True

    # -- the family contract (overridden per protocol) -----------------------

    #: Protocol label (actions, obs rows, arena tables).
    name = "forwarding"
    #: Labels the evaluator can answer, in guard-evaluation order.
    rule_order: Tuple[str, ...] = ()
    #: Label of the generation (starting) rule — special-cased by the
    #: verifier's independence oracle (generations race the uid counter).
    generation_rule = "R1"
    #: Labels counted as forwarding moves by ``moves_per_delivery``.
    forwarding_rules: Tuple[str, ...] = ()
    #: Buffer planes the rule set reads and drains.
    buffer_kinds: Tuple[str, ...] = ("R", "E")
    #: The plane whose writes change neighbors' candidate sets.
    offer_kind = "E"
    #: Max in-flight records per (edge, destination) lane a live runtime
    #: may pipeline while honoring the protocol's buffer budget
    #: (``None`` = no protocol-imposed cap).
    runtime_window_cap: Optional[int] = None

    def evaluate(self, p: ProcId, d: DestId) -> List[Action]:
        """The rule set: the enabled rules of ``p`` in component ``d`` as
        action records, in :attr:`rule_order`; ``[]`` at a ``(p, d)`` that
        is not live (see the module docstring).  A protocol binds its
        module-level evaluator ``(proto, p, d)`` under this name."""
        raise NotImplementedError

    def offered_message(self, d: DestId, q: ProcId) -> Optional[Message]:
        """The message processor ``q`` currently offers for forwarding in
        component ``d`` (None when ``q`` offers nothing)."""
        raise NotImplementedError

    # -- construction --------------------------------------------------------

    def __init__(
        self,
        net: Network,
        routing: RoutingService,
        higher_layer: HigherLayer,
        ledger: Optional[DeliveryLedger] = None,
        *,
        enable_colors: bool = True,
        choice_policy: str = "fifo",
        choice_wait_cap: int = 256,
        choice_wait_slowdown: int = 32,
    ) -> None:
        self.net = net
        self.routing = routing
        self.hl = higher_layer
        self.ledger = ledger if ledger is not None else DeliveryLedger()
        self.factory = MessageFactory()
        self.bufs = ForwardingBuffers(net.n)
        #: The ``choice_p(d)`` fairness queues, ``queues.head(d, p)``.  Sparse:
        #: queues materialize on first mutation and are evicted once
        #: clean-empty again (an absent queue reads as clean-empty, which is
        #: the identical observable state).
        self.queues = LazyChoiceTable(
            choice_policy,
            wait_cap=choice_wait_cap,
            wait_slowdown=choice_wait_slowdown,
        )
        #: The paper's Δ; colors live in {0..Δ}.
        self.delta = max_degree(net)
        self._choice_policy = choice_policy
        self.enable_colors = enable_colors
        self.current_step = 0

        # -- incremental-engine state ---------------------------------------
        self._aged = choice_policy in ("aged", "aged_fair")
        # aged_fair wait-ages advance once per sync, so reconciliation must
        # stay a full per-step sweep to keep the paper-equivalent semantics.
        self._sync_every_step = choice_policy == "aged_fair"
        #: Component-granular dirty sets + per-(p, d) action cache, marked
        #: from construction on: every write that sets up the initial
        #: configuration (planted garbage, scrambled queues, corrupted
        #: routing, raised requests) reaches it through the sinks below.
        self._components = ComponentDirtyCache()
        #: Snapshot anchor (``statemodel/snapshot.py``): the vector last
        #: restored to, plus the cache state :meth:`restore` left behind —
        #: the pending component dirt and the evaluation count.  While no
        #: guard has been evaluated and no routing entry has moved since,
        #: a restore back to the anchor is *quiet*: a plain undo that
        #: marks nothing, and the saved dirt is reinstated.
        self._anchor: Optional[StateVector] = None
        self._home_dirt: Optional[Dict[ProcId, Set[DestId]]] = None
        self._home_evals = 0
        #: True while the sinks mark no component dirt: during a quiet
        #: return, and on an excursion (:meth:`begin_excursion`) — a
        #: transition the next restore takes back.
        self._excursion = False
        #: Queues to re-sync at the next ``before_step``, per destination.
        self._resync: Dict[DestId, Set[ProcId]] = {}
        #: Cached ``next_hop`` values, sparse ``{d: {q: hop}}`` — absent =
        #: not yet queried.
        self._nh_cache: Dict[DestId, Dict[ProcId, ProcId]] = {}
        #: Closed neighborhood of every processor, precomputed.
        self._nbhd: List[Tuple[ProcId, ...]] = [
            (p, *net.neighbors(p)) for p in net.processors()
        ]
        # add_notifier (not bind) so later subscribers — the
        # message-lifecycle tracer of ``repro.obs`` — chain behind the
        # dirty-set hook instead of silently replacing it.
        self.bufs.add_notifier(self._on_buffer_write)
        self.hl.bind_notifier(self._on_request_change)
        # Every RoutingService reports its table mutations (the contract in
        # ``repro.routing.table``); the caches below are exact only then.
        routing.add_observer(self._on_routing_change)
        # Applied to every queue at materialization with key (d, p).
        self.queues.bind_notifier(self._on_queue_event)

    # -- shared procedures ---------------------------------------------------

    def pick_color(self, p: ProcId, d: DestId) -> Color:
        """``color_p(d)``; the ablation knob degrades it to constant 0."""
        if not self.enable_colors:
            return 0
        return free_color(self.net, self.bufs.rows(d)[0], p, self.delta)

    def next_hop(self, q: ProcId, d: DestId) -> ProcId:
        """``nextHop_q(d)`` through the per-entry cache (invalidated by the
        routing observer)."""
        row = self._nh_cache.get(d)
        if row is None:
            row = self._nh_cache[d] = {}
        hop = row.get(q)
        if hop is None:
            hop = row[q] = self.routing.next_hop(q, d)
        return hop

    def candidates(self, p: ProcId, d: DestId) -> Set[ProcId]:
        """The requesters ``choice_p(d)`` selects among: neighbors offering
        a message routed through ``p``, plus ``p`` itself when it wants to
        generate for ``d``."""
        cand: Set[ProcId] = set()
        offered = self.offered_message
        for q in self.net.neighbors(p):
            if offered(d, q) is not None and self.next_hop(q, d) == p:
                cand.add(q)
        if self.hl.request[p] and self.hl.next_destination(p) == d:
            cand.add(p)
        return cand

    # -- incremental-engine notification sinks -------------------------------

    def _mark_readers(self, d: DestId, procs, readers: List[ProcId]) -> None:
        """Dirty component ``d`` at the readers of a write: ``readers``
        and the processors of ``procs`` that are *live* in ``d``, holding
        a buffer or a queued requester there (the contract line: a
        processor that is not has no enabled rule before the write and
        none after it).  A processor that becomes live does so by a write
        of its own variables, and those sinks mark it unfiltered."""
        buf_r, buf_e = self.bufs.rows(d)
        queues = self.queues.row(d)
        for q in procs:
            if q in buf_r or q in buf_e or (
                q in queues and queues[q].head() is not None
            ):
                readers.append(q)
        self._components.mark_many(readers, d)

    def _on_buffer_write(self, d: DestId, p: ProcId, kind: str) -> None:
        """A buffer of ``p`` in component ``d`` was written.  Guards reading
        it live in component ``d`` of the closed neighborhood of ``p``
        (buffers are strictly per-destination — no rule reads across
        components); writes to the *offer* plane also change the candidate
        sets of ``p``'s neighbors."""
        if not self._excursion:
            # p's own guards read it, and those of its live neighbors.
            self._mark_readers(d, self.net.neighbors(p), [p])
        if kind == self.offer_kind:
            # candidates(q, d) admits p only when nextHop_p(d) == q, so what
            # p offers can only alter that one queue (a hop that moves
            # while p offers re-syncs old and new target through
            # _on_routing_change).
            self._resync.setdefault(d, set()).add(self.next_hop(p, d))

    def _on_queue_event(self, key, kind: str) -> None:
        """``choice_p(d)`` changed.  Only ``p``'s own guards for component
        ``d`` read the head; out-of-sync mutations (serve/force)
        additionally require the queue to be reconciled before the next
        guard evaluation."""
        d, p = key
        if not self._excursion:
            self._components.mark(p, d)
        if kind == "mutate":
            self._resync.setdefault(d, set()).add(p)

    def _on_request_change(self, p: ProcId, dest: DestId) -> None:
        """``request_p`` was raised or lowered for destination ``dest`` —
        only the generation rule at the single component ``(p, dest)``
        reads the handshake."""
        if not self._excursion:
            self._components.mark(p, dest)
        self._resync.setdefault(dest, set()).add(p)

    def _on_routing_change(self, p: ProcId, d: DestId) -> None:
        """``nextHop_p(d)`` moved.  Invalidate the hop cache and dirty every
        live reader — all in component ``d`` of the closed neighborhood:
        ``p``'s own erase guard, the candidate sets of ``p``'s neighbors,
        and the duplicate-cleanup guards at holders of copies last
        forwarded by ``p``.  Each reads on behalf of a buffer or queued
        requester, so ``p`` is filtered like its neighbors: the routing
        layer writes ``p``'s entry, not ``p``'s forwarding variables."""
        # The saved cache state describes the anchor under the routing
        # entries of that moment: a move ends the quiet return to it.
        self._home_dirt = None
        row = self._nh_cache.get(d)
        if row is not None:
            row.pop(p, None)
        nbhd = self._nbhd[p]
        self._mark_readers(d, nbhd, [])
        # Only p's own candidacy moves with its hop, and p is a candidate
        # nowhere while it offers nothing: an offer that starts later
        # re-syncs the hop of that moment (_on_buffer_write).  Otherwise
        # unfiltered: re-syncing the queue of a neighbor that is not live
        # is how a moved hop makes it live.
        if self.offered_message(d, p) is not None:
            self._resync.setdefault(d, set()).update(nbhd)

    def dirty_after(self, selection) -> Optional[Set[ProcId]]:
        if self._excursion:
            # Guards are about to be read at a configuration an excursion
            # reached: its writes marked nothing, so drop the cache and
            # rebuild every processor.
            self._excursion = False
            self._components.invalidate_all()
            return None
        # Project the component dirt onto processors *without* draining it:
        # each processor's dirty components are reconciled lazily inside
        # :meth:`enabled_actions`.  A processor whose forwarding actions are
        # priority-masked (the routing layer answers first) keeps its dirt
        # until the mask lifts and its components are finally re-evaluated.
        return set(self._components.dirty)

    # -- Protocol interface --------------------------------------------------

    def before_step(self, step: int) -> None:
        """Environment phase: raise requests, reconcile choice queues.

        Only queues whose candidate sets may have changed since the
        previous step (recorded by the notifier hooks) are reconciled —
        at the first step too: the writes that built the initial
        configuration were recorded like any other.  Under ``aged_fair``
        every destination component that can possibly act (occupied
        buffers or a pending request) is swept each step — idle
        components have no candidates by definition, and their rules'
        guards are all false.
        """
        self.current_step = step
        self.hl.before_step(step)
        if self._sync_every_step:
            self._resync.clear()
            self._full_reconcile()
            return
        resync = self._resync
        if resync:
            self._resync = {}
            for d, procs in resync.items():
                for p in procs:
                    self._sync_queue(d, p)

    def _full_reconcile(self) -> None:
        """Reconcile every queue of every active destination component."""
        procs = self.net.processors()
        for d in self.active_destinations():
            for p in procs:
                self._sync_queue(d, p)

    def _sync_queue(self, d: DestId, p: ProcId) -> None:
        cand = self.candidates(p, d)
        queue = self.queues.peek(d, p)
        if queue is None:
            if not cand:
                return  # absent queue ≡ clean-empty: nothing to reconcile
            queue = self.queues.materialize(d, p)
        if self._aged:
            offered = self.offered_message
            priority = {}
            for q in cand:
                if q != p:
                    msg = offered(d, q)
                    if msg is not None:
                        priority[q] = msg.hops
            queue.sync(cand, priority)
        else:
            queue.sync(cand)
        if not cand:
            # Quiescence eviction: a drained queue with no candidates is
            # indistinguishable from an absent one, so drop it.
            self.queues.evict_if_clean(d, p)

    def active_destinations(self) -> Set[DestId]:
        """Destinations whose component holds messages or has a pending
        generation request — O(active) from the incrementally maintained
        occupancy and request indexes, never an O(n) sweep."""
        return self.bufs.occupied_components() | self.hl.requested_destinations()

    def _active_sorted(self, pid: ProcId) -> List[DestId]:
        """Ascending list of destinations a rebuild of ``pid`` examines:
        occupied components plus (when raised) ``pid``'s own request
        destination.  Ascending order is part of the enabled-list contract —
        daemons observe it."""
        hl = self.hl
        occ = self.bufs.occupied_components()
        if hl.request[pid]:
            request_dest = hl.next_destination(pid)
            if request_dest is not None and request_dest not in occ:
                return sorted([*occ, request_dest])
        return sorted(occ)

    def _eval_component(self, pid: ProcId, d: DestId) -> List[Action]:
        """Evaluate the rule set at the single component ``(pid, d)`` — the
        one seam the component cache and the test oracles call.  Sound
        whether or not the component is active or live (the evaluator
        answers ``[]`` there), so the reconcile path can call this for any
        dirty component."""
        return self.evaluate(pid, d)

    @property
    def component_evals(self) -> int:
        """Component evaluations so far, rebuilds and reconciles alike."""
        return self._components.evals

    def enabled_actions(self, pid: ProcId) -> List[Action]:
        return self._components.enabled_actions(
            pid, self._eval_component, self._active_sorted
        )

    # -- introspection -------------------------------------------------------

    def network_is_empty(self) -> bool:
        """True iff no buffer of any component holds a message."""
        return self.bufs.total_occupied() == 0

    def dump(self) -> Dict[str, object]:
        """Compact dump of every occupied buffer, keyed ``bufK_p(d)``."""
        out: Dict[str, object] = {}
        for d, p, kind, msg in self.bufs.iter_messages():
            out[f"buf{kind}_{p}({d})"] = repr(msg)
        return out

    # -- snapshot/restore ----------------------------------------------------

    def snapshot(self) -> StateVector:
        """State vector of the full forwarding layer: buffers, nonempty
        choice queues (sparse, ascending ``(d, p)``), the higher layer, the
        ledger, the uid counters and the current step.  A sub-vector its
        component has not written since the last :meth:`restore` is the
        anchor's, shared by identity.  The routing provider is *not*
        included — either it is immutable
        (:class:`~repro.routing.static.StaticRouting`) or it participates
        in the protocol stack and snapshots itself.  Engine caches
        (component dirt, ``next_hop`` cache, resync sets) are derived
        state: :meth:`restore` repairs them."""
        return (
            self.bufs.snapshot(),
            self.queues.snapshot(),
            self.hl.snapshot(),
            self.ledger.snapshot(),
            self.factory.snapshot(),
            self.current_step,
        )

    def begin_excursion(self) -> None:
        """Declare that the writes until the next :meth:`restore` are a
        transition that restore takes back: the sinks keep the re-sync
        set but mark no component dirt.  Guards read before that restore
        rebuild every processor (:meth:`dirty_after`)."""
        self._excursion = True

    def restore(self, vec: StateVector) -> None:
        """Reinstate a previously captured :meth:`snapshot`.  Every real
        change flows through the component mutators, so the incremental
        engine's dirty sets end up covering the components that differ
        from the pre-restore configuration.

        While no guard has been evaluated and no routing entry has moved
        since the last restore, the cache state that restore left
        (entries, pending dirt) is still exact for the anchor, so the way
        back to it is *quiet*: a plain undo of the journaled cells and
        queues that notifies nothing, and the dirt saved then is
        reinstated.  Otherwise an excursion's unmarked writes are undone
        through the notifiers first.  Any other vector is then diffed
        from the anchor, not from wherever the last transition led, and
        becomes the anchor.  Vectors are captured after the environment
        phase, when every queue is reconciled with its candidates, so
        nothing is left to re-sync after any restore."""
        away = self._excursion
        home = (
            self._home_dirt is not None
            and self._home_evals == self.component_evals
        )
        if home:
            self._excursion = True  # the higher layer's undo notifies
            self._restore_parts(self._anchor, undo=True)
            if not away:  # an excursion left the saved dirt as it was
                self._components.reset(self._home_dirt)
        self._excursion = False
        if not home and away:
            self._restore_parts(self._anchor)
        if not home or vec is not self._anchor:
            self._restore_parts(vec)
            self._anchor = vec
            self._home_dirt = self._components.pending()
            self._home_evals = self.component_evals
        self._resync = {}

    def _restore_parts(self, vec: StateVector, undo: bool = False) -> None:
        bufs_vec, queues_vec, hl_vec, ledger_vec, factory_vec, step = vec
        if undo:
            self.bufs.undo()
            self.queues.undo()
        else:
            self.bufs.restore(bufs_vec)
            self.queues.restore(queues_vec)
        self.hl.restore(hl_vec)
        self.ledger.restore(ledger_vec)
        self.factory.restore(factory_vec)
        self.current_step = step
