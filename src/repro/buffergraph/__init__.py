"""Buffer graphs (Merlin & Schweitzer).

The paper's deadlock-freedom story rests on restricting message moves to the
edges of an acyclic directed graph over the network's buffers.  This package
provides the generic :class:`BufferGraph`, the classic "destination-based"
construction of Figure 1 (one buffer per (processor, destination)), the
paper's adapted two-buffer construction of Figure 2 (reception + emission
buffer per (processor, destination)), acyclicity checking, and the
orientation covers of the open-problem study.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "graph": "BufferGraph BufferId",
    "destination_based": "destination_based_buffer_graph",
    "ssmfp_graph": "ssmfp_buffer_graph",
    "orientation_cover": "Orientation OrientationCover cover_from_order "
                         "greedy_cover orientation_cover_buffer_graph "
                         "ring_cover tree_cover",
})

__all__ = [
    "BufferGraph",
    "BufferId",
    "destination_based_buffer_graph",
    "ssmfp_buffer_graph",
    "Orientation",
    "OrientationCover",
    "cover_from_order",
    "greedy_cover",
    "orientation_cover_buffer_graph",
    "ring_cover",
    "tree_cover",
]
