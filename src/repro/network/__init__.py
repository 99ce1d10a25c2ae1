"""Network substrate: identified undirected connected graphs.

The paper models the system as an undirected connected graph ``G = (V, E)``
of identified processors (§2).  This package provides the :class:`Network`
value type, a zoo of topology constructors used throughout the tests and
benchmarks, and graph-property helpers (degree Δ, diameter D, shortest-path
distances) that the paper's complexity analysis is phrased in.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "graph": "Network",
    "properties": "all_pairs_distances bfs_distances diameter eccentricity "
                  "max_degree",
    "topologies": "barbell_network binary_tree_network caterpillar_network "
                  "complete_network grid_network hypercube_network "
                  "line_network lollipop_network paper_figure1_network "
                  "paper_figure3_network random_connected_network "
                  "random_regular_network random_tree_network ring_network "
                  "star_network torus_network wheel_network",
})

__all__ = [
    "Network",
    "all_pairs_distances",
    "bfs_distances",
    "diameter",
    "eccentricity",
    "max_degree",
    "barbell_network",
    "binary_tree_network",
    "caterpillar_network",
    "complete_network",
    "grid_network",
    "hypercube_network",
    "line_network",
    "lollipop_network",
    "paper_figure1_network",
    "paper_figure3_network",
    "random_connected_network",
    "random_regular_network",
    "random_tree_network",
    "ring_network",
    "star_network",
    "torus_network",
    "wheel_network",
]
