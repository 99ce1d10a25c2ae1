"""State-model execution engine (the paper's §2.1 computational model).

This package implements the locally shared memory model: protocols are sets
of guarded actions evaluated against a configuration snapshot; a *daemon*
selects a nonempty subset of enabled processors each step; selected actions
execute atomically with reads bound at guard-evaluation time (so a step has
exactly the paper's three-phase semantics); rounds are accounted per the
Dolev-Israeli-Moran definition as modified by Bui-Datta-Petit-Villain.
"""

from repro.statemodel.action import Action
from repro.statemodel.daemon import (
    AdversarialScriptDaemon,
    CentralRandomDaemon,
    Daemon,
    DistributedRandomDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
)
from repro.statemodel.message import Message, MessageFactory
from repro.statemodel.protocol import Protocol
from repro.statemodel.scheduler import Simulator, StepReport

__all__ = [
    "Action",
    "AdversarialScriptDaemon",
    "CentralRandomDaemon",
    "Daemon",
    "DistributedRandomDaemon",
    "RoundRobinDaemon",
    "SynchronousDaemon",
    "Message",
    "MessageFactory",
    "Protocol",
    "Simulator",
    "StepReport",
]
