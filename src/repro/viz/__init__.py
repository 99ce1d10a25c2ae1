"""ASCII visualization of networks and configurations.

Renders what Figure 3 draws: the network and the buffer occupancy of one
destination's component in a configuration.
"""

from repro.viz.ascii_art import render_component_state, render_network

__all__ = [
    "render_component_state",
    "render_network",
]
