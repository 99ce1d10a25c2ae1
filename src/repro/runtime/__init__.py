"""``repro.runtime`` — the live execution path.

Where every other substrate in the repo is a deterministic single-thread
simulator, this package actually *runs* the protocol: nodes are concurrent
asyncio tasks exchanging serialized frames over pluggable transports
(in-memory or real TCP), optionally behind a seeded fault-injecting
network emulator, with an oracle-checked conformance harness judging every
run against the paper's specification.

See ``docs/runtime.md`` for the architecture and the transport contract.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "cluster": "ClusterSpec RuntimeResult run_cluster",
    "conformance": "ConformanceReport RuntimeEvent check_events",
    "hop": "HopCore RuntimeParams",
    "netem": "NetemConfig NetemTransport",
    "node": "RuntimeNode",
    "transport": "LocalTransport TcpTransport Transport allocate_ports",
    "wire": "WIRE_V2 WireFormatError",
})

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
