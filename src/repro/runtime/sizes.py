"""The sizes a live cluster can honour, checked in one place.

:class:`~repro.runtime.cluster.ClusterSpec` runs :func:`check_sizes` at
construction, and a scenario's ``[runtime]`` section runs it at parse time.
This module loads no ``asyncio``: parsing a simulate-only spec loads no
live runtime.
"""

from __future__ import annotations

from typing import Any

from repro.errors import ConfigurationError
from repro.runtime.hop import MAX_WINDOW

#: ``(field, CLI flag, test, wanted)``.
_SIZE_RANGES = (
    ("window", "--window", lambda v: 1 <= v <= MAX_WINDOW, f"in 1..{MAX_WINDOW}"),
    ("max_batch", "--max-batch", lambda v: v >= 1, "at least 1"),
    ("messages", "--messages", lambda v: v >= 0, "at least 0"),
    ("deadline", "--deadline", lambda v: v > 0, "positive"),
)


def check_sizes(**sizes: Any) -> None:
    """Refuse any given size the live runtime cannot honour.

    Raises :class:`ConfigurationError` unless ``window`` is in
    1..``MAX_WINDOW`` (the SACK bitmap width), ``max_batch`` ≥ 1,
    ``messages`` ≥ 0 and ``deadline`` > 0.  The one check behind ``repro
    runtime`` and a scenario's ``[runtime]``."""
    for name, flag, ok, wanted in _SIZE_RANGES:
        if name not in sizes:
            continue
        value = sizes[name]
        if not (isinstance(value, (int, float)) and ok(value)):
            raise ConfigurationError(
                f"runtime {name} ({flag}) must be {wanted}, got {value!r}"
            )
