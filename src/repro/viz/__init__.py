"""ASCII visualization of networks and configurations.

Renders what Figure 3 draws: the network and the buffer occupancy of one
destination's component in a configuration.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "ascii_art": "render_component_state render_network",
})

__all__ = [
    "render_component_state",
    "render_network",
]
