"""State-model execution engine (the paper's §2.1 computational model).

This package implements the locally shared memory model: protocols are sets
of guarded actions evaluated against a configuration snapshot; a *daemon*
selects a nonempty subset of enabled processors each step; selected actions
execute atomically with reads bound at guard-evaluation time (so a step has
exactly the paper's three-phase semantics); rounds are accounted per the
Dolev-Israeli-Moran definition as modified by Bui-Datta-Petit-Villain.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "action": "Action",
    "daemon": "AdversarialScriptDaemon CentralRandomDaemon Daemon "
              "DistributedRandomDaemon RoundRobinDaemon SynchronousDaemon",
    "message": "Message MessageFactory",
    "protocol": "Protocol",
    "scheduler": "Simulator StepReport",
})

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
