"""Frontier-parallel exhaustive exploration across forked workers.

The BFS frontier is sharded by canon hash: worker ``w`` owns every canon
``c`` with ``crc32(repr(c)) % workers == w`` and holds that shard of the
seen-set.  Exploration proceeds in batched per-level rounds — the parent
sends each worker its intake (the frontier states it owns), the worker
dedups against its shard, expands the fresh ones through the same
:func:`repro.verify.modelcheck.expand_state` the serial engine uses, and
returns the successors bucketed by owner; the parent merges the buckets
into the next round's intake and aggregates counts, violation witnesses
and (for liveness) the graph edges **in worker-index order**, so the
totals are deterministic for a given worker count.

Two properties make the result comparable to the serial engines:

* the rounds are *level-synchronous* — every intake item of round ``r``
  sits at BFS depth ``r`` — so dedup keeps the minimal-depth copy of each
  canon exactly as serial BFS does, and the expanded state set (hence
  states, transitions, terminal count, violations and skipped-selection
  totals) is identical to the serial snapshot engine's;
* shard routing hashes ``repr(canon)`` with :func:`zlib.crc32`, not the
  builtin ``hash`` — canons are pure nested builtins, so their ``repr``
  is deterministic across processes, while ``hash`` is salted per
  process (``PYTHONHASHSEED``) and would scatter a canon across shards.

Workers are started with the ``fork`` method so they inherit the
checker's ``make_system`` factory (arbitrary closures — never pickled);
state vectors and canons do cross the pipes and are plain picklable
tuples.  On platforms without ``fork`` the caller degrades to the
in-process engine (:func:`fork_available`).
"""

from __future__ import annotations

import multiprocessing
import zlib
from typing import Dict, List, Optional, Tuple

from repro.verify.modelcheck import ModelCheckResult, expand_state


def fork_available() -> bool:
    """True iff the ``fork`` start method exists (Linux/macOS; not
    Windows) — the parallel engine's hard requirement."""
    return "fork" in multiprocessing.get_all_start_methods()


def shard_of(key, workers: int) -> int:
    """Owner worker of a canon — crc32 of the deterministic ``repr``."""
    return zlib.crc32(repr(key).encode()) % workers


def _start_workers(target, checker, workers: int):
    """Fork ``workers`` processes running ``target(checker, windex,
    workers, conn)``; returns (parent connections, processes)."""
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []
    for windex in range(workers):
        parent_conn, child_conn = ctx.Pipe()
        proc = ctx.Process(
            target=target, args=(checker, windex, workers, child_conn)
        )
        proc.daemon = True
        proc.start()
        child_conn.close()
        conns.append(parent_conn)
        procs.append(proc)
    return conns, procs


def _shutdown(conns, procs) -> None:
    for conn in conns:
        try:
            conn.close()
        except OSError:
            pass
    for proc in procs:
        proc.join(timeout=10)
        if proc.is_alive():  # pragma: no cover - hang safety valve
            proc.terminate()
            proc.join(timeout=5)


def _recv(conn):
    kind, payload = conn.recv()
    if kind == "error":
        raise RuntimeError(f"parallel verify worker failed: {payload}")
    return payload


# -- safety (ModelChecker) -----------------------------------------------------


def _safety_worker(checker, windex: int, workers: int, conn) -> None:
    try:
        system = checker._fresh()
        system.advance_env()
        scratch = ModelCheckResult(
            states=0, transitions=0, terminal_states=0,
            max_frontier=0, truncated=False,
        )
        # Same deterministic construction as the parent's: every worker
        # re-derives the identical reducer/oracle pair from the root.
        reducer, oracle = checker._setup_reduction(system, scratch)
        seen = set()
        while True:
            msg = conn.recv()
            if msg[0] == "finish":
                conn.send(("seen", seen if msg[1] else None))
                return
            items = msg[1]
            res = ModelCheckResult(
                states=0, transitions=0, terminal_states=0,
                max_frontier=0, truncated=False,
            )
            dedup = 0
            outs: Dict[int, List] = {}
            for vec, key, depth in items:
                if key in seen:
                    dedup += 1
                    continue
                seen.add(key)
                res.states += 1
                children = expand_state(
                    system, vec, depth,
                    checker._max_width, oracle, reducer, res,
                )
                if children is None:
                    break  # SelectionOverflow: res.truncated/note are set
                for child_vec, child_key, child_depth in children:
                    outs.setdefault(shard_of(child_key, workers), []).append(
                        (child_vec, child_key, child_depth)
                    )
            conn.send(("round", {
                "states": res.states,
                "transitions": res.transitions,
                "terminal": res.terminal_states,
                "skipped": res.skipped_selections,
                "dedup": dedup,
                "violations": res.violations,
                "truncated": res.truncated,
                "note": res.note,
                "outs": outs,
            }))
    except Exception as exc:  # pragma: no cover - surfaced in the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass


def run_safety(checker, result: ModelCheckResult, workers: int) -> ModelCheckResult:
    """Parallel counterpart of ``ModelChecker._run_snapshot``.

    The parent owns no shard: it validates the reductions (for the
    result's notes), injects the root into its owner's intake, then
    orchestrates rounds until every intake bucket is empty.  The state
    cap is checked between rounds, so a truncated parallel run may
    overshoot the cap by up to one round's expansion (the note says so).
    """
    meter = checker._meter()
    system = checker._fresh()
    system.advance_env()
    reducer, _oracle = checker._setup_reduction(system, result)
    root_vec = system.snapshot()
    root_key = system.canon(root_vec)
    if reducer is not None:
        root_key = reducer.representative(root_key)

    conns, procs = _start_workers(_safety_worker, checker, workers)
    pending: Dict[int, List] = {w: [] for w in range(workers)}
    pending[shard_of(root_key, workers)].append((root_vec, root_key, 0))
    try:
        while any(pending.values()):
            result.max_frontier = max(
                result.max_frontier, sum(len(b) for b in pending.values())
            )
            if result.states >= checker._max_states:
                result.truncated = True
                result.note = (
                    f"state cap {checker._max_states} reached "
                    "(parallel rounds may overshoot by one level)"
                )
                break
            batches, pending = pending, {w: [] for w in range(workers)}
            for w, conn in enumerate(conns):
                conn.send(("work", batches[w]))
            stop = False
            for conn in conns:  # worker-index order: deterministic totals
                payload = _recv(conn)
                result.states += payload["states"]
                result.transitions += payload["transitions"]
                result.terminal_states += payload["terminal"]
                result.skipped_selections += payload["skipped"]
                result.dedup_hits += payload["dedup"]
                result.violations.extend(payload["violations"])
                if payload["truncated"]:
                    result.truncated = True
                    result.note = payload["note"]
                    stop = True
                for owner, items in payload["outs"].items():
                    pending[owner].extend(items)
            meter.tick(
                result.states,
                sum(len(b) for b in pending.values()),
                result.dedup_hits,
            )
            if stop:
                break
        canons = set() if checker._collect_canons else None
        for conn in conns:
            conn.send(("finish", checker._collect_canons))
        for conn in conns:
            shard_seen = _recv(conn)
            if canons is not None and shard_seen is not None:
                canons.update(shard_seen)
        if canons is not None:
            result.canons = frozenset(canons)
    finally:
        _shutdown(conns, procs)
    meter.finish(result.states, result.transitions, result.dedup_hits)
    return result


# -- liveness graph construction -----------------------------------------------


def _liveness_worker(checker, windex: int, workers: int, conn) -> None:
    try:
        system = checker._fresh()
        system.advance_env()
        while True:
            msg = conn.recv()
            if msg[0] == "finish":
                return
            entries = []
            for vec in msg[1]:
                entry = checker.graph_node(system, vec)
                entries.append(entry)
                if isinstance(entry, str):
                    # Serial exploration stops at the first node it cannot
                    # expand, in id order; nodes after it stay unexplored.
                    break
            conn.send(("round", entries))
    except Exception as exc:  # pragma: no cover - surfaced in the parent
        try:
            conn.send(("error", f"{type(exc).__name__}: {exc}"))
        except OSError:
            pass


def run_liveness(checker, workers: int):
    """Parallel counterpart of ``LivenessChecker._explore_snapshot``:
    build the bit-identical reachable graph with forked workers.

    Unlike the safety search, liveness needs globally dense node ids (the
    SCC pass runs on the parent), so the parent keeps the whole
    ``canon -> id`` map and the workers are stateless expanders: each
    round the current BFS level is split into contiguous chunks (ids
    ascending), each worker expands its chunk, and the parent assigns
    child ids by scanning the replies in id order — exactly the discovery
    order of the serial index-scan, so ids, edges, metadata and the
    truncation point all match the serial engine bit for bit.
    """
    system = checker._fresh()
    system.advance_env()
    root_vec = system.snapshot()
    keys: Dict[Tuple, int] = {system.canon(root_vec): 0}
    vecs: List[Optional[Tuple]] = [root_vec]
    outstanding: List = []
    enabled_pids: List = []
    edges: List[List] = []
    truncated = False
    note: Optional[str] = None
    meter = checker._meter()

    conns, procs = _start_workers(_liveness_worker, checker, workers)
    try:
        level_start = 0
        while level_start < len(vecs) and not truncated:
            level_end = len(vecs)
            if level_end > checker._max_states:
                # Serial stops once the scan index hits the cap: nodes
                # beyond it are discovered but never explored.
                level_end = max(level_start, checker._max_states)
                truncated = True
                note = f"state cap {checker._max_states} reached"
                if level_end == level_start:
                    break
            level = [vecs[i] for i in range(level_start, level_end)]
            chunks = _split_chunks(level, workers)
            for conn, chunk in zip(conns, chunks):
                conn.send(("work", chunk))
            replies = [_recv(conn) for conn in conns]
            overflowed = False
            index = level_start
            for reply in replies:
                for entry in reply:
                    if isinstance(entry, str):
                        truncated = True
                        note = f"node {index}: {entry}"
                        overflowed = True
                        break
                    meta, enabled_fs, children = entry
                    outstanding.append(meta)
                    enabled_pids.append(enabled_fs)
                    edges.append([])
                    for child_vec, child_key, pids in children:
                        target = keys.get(child_key)
                        if target is None:
                            target = len(vecs)
                            keys[child_key] = target
                            vecs.append(child_vec)
                        edges[index].append((target, pids))
                    vecs[index] = None  # free memory; metadata kept
                    index += 1
                if overflowed:
                    break
            meter.tick(index, len(vecs) - index, 0)
            if overflowed:
                break
            level_start = level_end
        for conn in conns:
            conn.send(("finish",))
    finally:
        _shutdown(conns, procs)
    explored = len(edges)
    for lst in edges:
        lst[:] = [(t, pids) for t, pids in lst if t < explored]
    meter.finish(explored, sum(len(e) for e in edges), 0)
    return outstanding, enabled_pids, edges, truncated, note


def _split_chunks(items: List, workers: int) -> List[List]:
    """Split ``items`` into ``workers`` contiguous chunks (sizes differing
    by at most one, earlier chunks larger)."""
    base, extra = divmod(len(items), workers)
    chunks, start = [], 0
    for w in range(workers):
        size = base + (1 if w < extra else 0)
        chunks.append(items[start:start + size])
        start += size
    return chunks
