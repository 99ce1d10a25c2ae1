"""repro — a reproduction of "A snap-stabilizing point-to-point
communication protocol in message-switched networks" (Cournier, Dubois,
Villain; IPPS 2009).

The package implements the paper's SSMFP protocol and every substrate it
depends on — the locally shared memory state model with adversarial
daemons, a self-stabilizing silent routing protocol composed with priority,
the buffer graphs of Figures 1 and 2, the classical fault-free baseline,
and an experiment harness regenerating each of the paper's figures and
propositions.

Quickstart::

    from repro import build_simulation, delivered_and_drained
    from repro.network import ring_network
    from repro.app import uniform_workload

    net = ring_network(8)
    sim = build_simulation(
        net,
        workload=uniform_workload(net.n, count=20, seed=1),
        routing_corruption={"kind": "random", "fraction": 1.0},
        garbage={"fraction": 0.4},
        seed=7,
    )
    sim.run(200_000, halt=delivered_and_drained)
    assert sim.ledger.all_valid_delivered()   # exactly once, per message
"""

import importlib
import sys


def _lazy_facade(package, exports):
    """PEP 562 ``__getattr__`` and ``__dir__`` for a package facade.

    ``exports`` maps a module (relative to ``package``) to the names it
    gives the facade, space-separated.  A name is imported from its module
    on first access and then kept in the package namespace, so importing a
    package loads none of its modules; an unknown name raises the
    ``AttributeError`` that names the package."""
    where = {
        name: f"{package}.{module}"
        for module, names in exports.items()
        for name in names.split()
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        namespace[name] = getattr(importlib.import_module(where[name]), name)
        return namespace[name]

    def __dir__():
        return sorted(namespace.keys() | where.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_facade(__name__, {
    "app": "HigherLayer uniform_workload",
    "core": "SSMFP DeliveryLedger InvariantChecker",
    "errors": "ConfigurationError InvariantViolation ReproError ScheduleError "
              "SimulationLimitExceeded SpecificationViolation TopologyError",
    "network": "Network",
    "routing": "SelfStabilizingBFSRouting StaticRouting",
    "sim": "Simulation build_baseline_simulation build_simulation "
           "delivered_and_drained",
    "statemodel": "Daemon DistributedRandomDaemon Message RoundRobinDaemon "
                  "Simulator SynchronousDaemon",
})

__version__ = "1.0.0"

__all__ = [
    "SSMFP",
    "DeliveryLedger",
    "InvariantChecker",
    "HigherLayer",
    "uniform_workload",
    "Network",
    "SelfStabilizingBFSRouting",
    "StaticRouting",
    "Simulation",
    "build_simulation",
    "build_baseline_simulation",
    "delivered_and_drained",
    "Daemon",
    "DistributedRandomDaemon",
    "RoundRobinDaemon",
    "SynchronousDaemon",
    "Simulator",
    "Message",
    "ReproError",
    "TopologyError",
    "ConfigurationError",
    "InvariantViolation",
    "SpecificationViolation",
    "ScheduleError",
    "SimulationLimitExceeded",
    "__version__",
]
