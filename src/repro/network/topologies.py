"""Topology zoo.

Constructors for the network families used by the tests, examples and
benchmarks.  The complexity statements of the paper are parametrized by the
maximal degree Δ and the diameter D, so the zoo deliberately spans the
(Δ, D) plane: lines/rings maximize D at constant Δ, stars maximize Δ at
constant D, grids/tori/hypercubes sit in between, and the random family
provides adversarial irregular instances for property-based testing.

Two constructors rebuild the networks of the paper's figures.  The original
figure artwork is not available in the source we reproduce from, so these
are faithful reconstructions from the prose: Figure 3's network has Δ = 3
and admits the routing cycle between processors ``a`` and ``c`` for
destination ``b`` that the worked example walks through.
"""

from __future__ import annotations

import random
from typing import List, Optional, Tuple

from repro.errors import TopologyError
from repro.network.graph import Network
from repro.types import ProcId


def line_network(n: int) -> Network:
    """Path ``0 - 1 - ... - n-1``:  Δ = 2, D = n-1."""
    return Network(n, [(i, i + 1) for i in range(n - 1)])


def ring_network(n: int) -> Network:
    """Cycle on ``n >= 3`` processors:  Δ = 2, D = ⌊n/2⌋."""
    if n < 3:
        raise TopologyError(f"a ring needs at least 3 processors, got {n}")
    return Network(n, [(i, (i + 1) % n) for i in range(n)])


def star_network(n: int) -> Network:
    """Star with center 0 and ``n - 1`` leaves:  Δ = n-1, D = 2."""
    if n < 2:
        raise TopologyError(f"a star needs at least 2 processors, got {n}")
    return Network(n, [(0, i) for i in range(1, n)])


def complete_network(n: int) -> Network:
    """Complete graph K_n:  Δ = n-1, D = 1."""
    if n < 2:
        raise TopologyError(f"a complete network needs at least 2 processors, got {n}")
    return Network(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def grid_network(rows: int, cols: int) -> Network:
    """``rows × cols`` mesh:  Δ ≤ 4, D = rows + cols - 2."""
    if rows < 1 or cols < 1:
        raise TopologyError("grid dimensions must be positive")
    edges: List[Tuple[ProcId, ProcId]] = []
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            if c + 1 < cols:
                edges.append((p, p + 1))
            if r + 1 < rows:
                edges.append((p, p + cols))
    return Network(rows * cols, edges)


def torus_network(rows: int, cols: int) -> Network:
    """``rows × cols`` torus (wrap-around mesh):  Δ ≤ 4.

    Requires at least 3 rows and 3 columns so no wrap edge duplicates a
    mesh edge.
    """
    if rows < 3 or cols < 3:
        raise TopologyError("a torus needs at least 3 rows and 3 columns")
    edges = set()
    for r in range(rows):
        for c in range(cols):
            p = r * cols + c
            right = r * cols + (c + 1) % cols
            down = ((r + 1) % rows) * cols + c
            edges.add(tuple(sorted((p, right))))
            edges.add(tuple(sorted((p, down))))
    return Network(rows * cols, sorted(edges))


def hypercube_network(dim: int) -> Network:
    """Boolean hypercube of dimension ``dim``:  n = 2^dim, Δ = D = dim."""
    if dim < 1:
        raise TopologyError("hypercube dimension must be at least 1")
    n = 1 << dim
    edges = []
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v))
    return Network(n, edges)


def lollipop_network(clique: int, tail: int) -> Network:
    """A clique of size ``clique`` with a path of ``tail`` extra processors
    attached to processor 0.  High Δ *and* high D in one instance — a
    stress case for the Δ^D bound of Proposition 5.
    """
    if clique < 2 or tail < 1:
        raise TopologyError("lollipop needs clique >= 2 and tail >= 1")
    n = clique + tail
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    prev = 0
    for i in range(clique, n):
        edges.append((prev, i))
        prev = i
    return Network(n, edges)


def binary_tree_network(depth: int) -> Network:
    """Complete binary tree of the given depth:  n = 2^(depth+1) - 1,
    Δ = 3, D = 2·depth."""
    if depth < 0:
        raise TopologyError("depth must be non-negative")
    n = (1 << (depth + 1)) - 1
    edges = [((i - 1) // 2, i) for i in range(1, n)]
    return Network(n, edges)


def caterpillar_network(spine: int, legs_per_node: int) -> Network:
    """A caterpillar tree: a spine path of ``spine`` processors, each with
    ``legs_per_node`` leaf legs.  High-Δ tree for the orientation-cover
    experiments."""
    if spine < 1 or legs_per_node < 0:
        raise TopologyError("need spine >= 1 and legs_per_node >= 0")
    edges: List[Tuple[ProcId, ProcId]] = [(i, i + 1) for i in range(spine - 1)]
    next_id = spine
    for s in range(spine):
        for _ in range(legs_per_node):
            edges.append((s, next_id))
            next_id += 1
    return Network(next_id, edges)


def barbell_network(clique: int, bridge: int) -> Network:
    """Two cliques of size ``clique`` joined by a path of ``bridge`` extra
    processors — the bottleneck stress topology."""
    if clique < 2 or bridge < 0:
        raise TopologyError("need clique >= 2 and bridge >= 0")
    edges = [(u, v) for u in range(clique) for v in range(u + 1, clique)]
    offset = clique + bridge
    edges += [
        (offset + u, offset + v)
        for u in range(clique)
        for v in range(u + 1, clique)
    ]
    chain = [clique - 1] + list(range(clique, clique + bridge)) + [offset]
    edges += list(zip(chain, chain[1:]))
    return Network(offset + clique, edges)


def wheel_network(n: int) -> Network:
    """Wheel: a hub (processor 0) connected to every node of an
    (n-1)-cycle:  Δ = n-1, D = 2."""
    if n < 4:
        raise TopologyError("a wheel needs at least 4 processors")
    rim = list(range(1, n))
    edges = [(0, p) for p in rim]
    edges += [(rim[i], rim[(i + 1) % len(rim)]) for i in range(len(rim))]
    return Network(n, sorted(set(tuple(sorted(e)) for e in edges)))


def random_regular_network(n: int, degree: int, seed: int, tries: int = 200) -> Network:
    """Random connected ``degree``-regular graph via the pairing model
    (retrying until simple and connected).  Deterministic for a seed."""
    if n * degree % 2 != 0:
        raise TopologyError("n * degree must be even")
    if degree < 2 or degree >= n:
        raise TopologyError("need 2 <= degree < n")
    rng = random.Random(seed)
    for _ in range(tries):
        stubs = [p for p in range(n) for _ in range(degree)]
        rng.shuffle(stubs)
        edges = set()
        ok = True
        for u, v in zip(stubs[::2], stubs[1::2]):
            if u == v or (min(u, v), max(u, v)) in edges:
                ok = False
                break
            edges.add((min(u, v), max(u, v)))
        if not ok:
            continue
        try:
            return Network(n, sorted(edges))
        except TopologyError:
            continue  # disconnected; retry
    raise TopologyError(
        f"could not sample a connected {degree}-regular graph on {n} nodes"
    )


def random_tree_network(n: int, seed: int) -> Network:
    """Uniform-ish random tree (random attachment):  always connected,
    m = n-1.  Deterministic for a given ``seed``."""
    if n < 1:
        raise TopologyError("tree needs at least 1 processor")
    rng = random.Random(seed)
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return Network(n, edges)


def random_connected_network(n: int, extra_edges: int, seed: int) -> Network:
    """Random connected graph: a random tree plus ``extra_edges`` distinct
    random non-tree edges.  Deterministic for a given ``seed``.
    """
    if n < 1:
        raise TopologyError("network needs at least 1 processor")
    rng = random.Random(seed)
    edges = {tuple(sorted((rng.randrange(i), i))) for i in range(1, n)}
    max_extra = n * (n - 1) // 2 - len(edges)
    budget = min(extra_edges, max_extra)
    while budget > 0:
        u = rng.randrange(n)
        v = rng.randrange(n)
        if u == v:
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges:
            continue
        edges.add(e)
        budget -= 1
    return Network(n, sorted(edges))


def paper_figure1_network() -> Network:
    """The 5-processor network of the paper's Figure 1 (reconstruction).

    Figure 1 illustrates the classic "destination-based" buffer graph on a
    small network.  We use five processors ``a..e`` forming a house-shaped
    graph (a cycle with a chord) — small enough to print, cyclic enough
    that the buffer-graph acyclicity is non-trivial.
    """
    names = ["a", "b", "c", "d", "e"]
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (1, 4)]
    return Network(5, edges, names=names)


def paper_figure3_network() -> Network:
    """The network ``(N)`` of the paper's Figure 3 (reconstruction).

    The prose requires Δ = 3 and a possible routing cycle between the
    buffers of ``a`` and ``c`` for destination ``b``.  We use four
    processors: ``b`` adjacent to ``a``, ``c`` and ``d``, plus the edge
    ``a - c`` that carries the corrupted-routing cycle.
    """
    names = ["a", "b", "c", "d"]
    a, b, c, d = 0, 1, 2, 3
    edges = [(a, b), (b, c), (b, d), (a, c)]
    return Network(4, edges, names=names)


def topology_by_name(name: str, *args, **kwargs) -> Network:
    """Build a topology from a string name (the spec schema's vocabulary;
    the experiments' ``"grid(3x3)"`` labels pass their sizes positionally).

    Supported names: ``line``, ``ring``, ``star``, ``complete``, ``grid``,
    ``torus``, ``hypercube``, ``lollipop``, ``random_tree``, ``random``,
    ``fig1``, ``fig3``.
    """
    builders = {
        "line": line_network,
        "ring": ring_network,
        "star": star_network,
        "complete": complete_network,
        "grid": grid_network,
        "torus": torus_network,
        "hypercube": hypercube_network,
        "lollipop": lollipop_network,
        "binary_tree": binary_tree_network,
        "caterpillar": caterpillar_network,
        "barbell": barbell_network,
        "wheel": wheel_network,
        "random_regular": random_regular_network,
        "random_tree": random_tree_network,
        "random": random_connected_network,
        "fig1": paper_figure1_network,
        "fig3": paper_figure3_network,
    }
    try:
        builder = builders[name]
    except KeyError:
        raise TopologyError(f"unknown topology {name!r}") from None
    return builder(*args, **kwargs)
