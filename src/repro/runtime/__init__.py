"""``repro.runtime`` — the live execution path.

Where every other substrate in the repo is a deterministic single-thread
simulator, this package actually *runs* the protocol: nodes are concurrent
asyncio tasks exchanging serialized frames over pluggable transports
(in-memory or real TCP), optionally behind a seeded fault-injecting
network emulator, with an oracle-checked conformance harness judging every
run against the paper's specification.

See ``docs/runtime.md`` for the architecture and the transport contract.
"""

from repro.runtime.cluster import ClusterSpec, RuntimeResult, run_cluster
from repro.runtime.conformance import (
    ConformanceReport,
    RuntimeEvent,
    check_events,
)
from repro.runtime.hop import HopCore, RuntimeParams
from repro.runtime.netem import NetemConfig, NetemTransport
from repro.runtime.node import RuntimeNode
from repro.runtime.transport import (
    LocalTransport,
    TcpTransport,
    Transport,
    allocate_ports,
)
from repro.runtime.wire import WIRE_V2, WireFormatError

__all__ = [
    "ClusterSpec",
    "ConformanceReport",
    "HopCore",
    "LocalTransport",
    "NetemConfig",
    "NetemTransport",
    "RuntimeEvent",
    "RuntimeNode",
    "RuntimeParams",
    "RuntimeResult",
    "TcpTransport",
    "Transport",
    "WIRE_V2",
    "WireFormatError",
    "allocate_ports",
    "check_events",
    "run_cluster",
]
