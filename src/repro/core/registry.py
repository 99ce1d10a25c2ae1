"""The protocol registry: resolve a protocol family member by name.

Every place the stack instantiates a forwarding protocol — the
simulation builder, the CLI subcommands, the sweep spec compiler — goes
through :func:`resolve`, and every caller that runs a protocol live caps
the lane window through :func:`runtime_window`, so new family members
(the tree/linear variants of arXiv:1107.6014 / arXiv:1006.3432) plug in
by registering here once.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.core.family import ForwardingProtocol
from repro.core.protocol import SSMFP
from repro.core.protocol2 import SSMFP2
from repro.errors import ConfigurationError

#: Registry key (lowercase) → protocol class.
PROTOCOLS: Dict[str, Type[ForwardingProtocol]] = {
    "ssmfp": SSMFP,
    "ssmfp2": SSMFP2,
}


def available() -> List[str]:
    """Registered protocol names, ascending."""
    return sorted(PROTOCOLS)


def resolve(name: str) -> Type[ForwardingProtocol]:
    """Look up a protocol class by (case-insensitive) registry name."""
    cls = PROTOCOLS.get(str(name).lower())
    if cls is None:
        known = ", ".join(available())
        raise ConfigurationError(f"unknown protocol {name!r}; known: {known}")
    return cls


def runtime_window(name: str, window: int) -> int:
    """``window`` capped at protocol ``name``'s ``runtime_window_cap``."""
    cap = resolve(name).runtime_window_cap
    return window if cap is None else min(window, cap)
