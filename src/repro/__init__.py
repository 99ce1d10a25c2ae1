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

from repro.app import HigherLayer, uniform_workload
from repro.core import SSMFP, DeliveryLedger, InvariantChecker
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    ReproError,
    ScheduleError,
    SimulationLimitExceeded,
    SpecificationViolation,
    TopologyError,
)
from repro.network import Network
from repro.routing import SelfStabilizingBFSRouting, StaticRouting
from repro.sim import (
    Simulation,
    build_baseline_simulation,
    build_simulation,
    delivered_and_drained,
)
from repro.statemodel import (
    Daemon,
    DistributedRandomDaemon,
    Message,
    RoundRobinDaemon,
    Simulator,
    SynchronousDaemon,
)

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
