"""Exhaustive verification of small instances.

Random adversarial testing (the rest of the suite) samples executions;
:mod:`repro.verify.modelcheck` *enumerates* them: a breadth-first search
over every configuration reachable from a given initial state under every
daemon choice — including every simultaneous selection — checking the
safety invariants in each.  On small instances this is genuine model
checking of the protocol's Lemmas 4-5.

The search is serial.  Two composable reductions shrink the explored
space soundly (see ``docs/verify.md``): partial-order reduction and
processor-permutation symmetry quotienting (:mod:`repro.verify.reduction`).
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "liveness": "FairLivelock LivenessChecker LivenessResult",
    "modelcheck": "REDUCTIONS ModelChecker ModelCheckResult ProgressMeter",
    "reduction": "IndependenceOracle SymmetryReducer validate_symmetry",
})

__all__ = [
    "REDUCTIONS",
    "ModelChecker",
    "ModelCheckResult",
    "ProgressMeter",
    "LivenessChecker",
    "LivenessResult",
    "FairLivelock",
    "IndependenceOracle",
    "SymmetryReducer",
    "validate_symmetry",
]
