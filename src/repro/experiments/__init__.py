"""Experiments: one module per paper figure/proposition plus the
comparison, overhead and ablation studies.

Every module exposes ``run_*`` functions returning row dictionaries.  The
experiments that are a sweep declare it as a
:class:`repro.experiments.sweep.Sweep` (``SWEEP``: the ``run_one``, its
axes, seeds, fold, columns and title); the multi-table and scripted ones
keep a ``report()`` of their own.  :mod:`repro.experiments.registry` maps
experiment ids (F1-F4, P4-P7, T1, T2, A1-A4, X1-X7) to those entry points
and ``repro experiment <id>`` regenerates one.
"""

from repro import _lazy_facade

__getattr__, __dir__ = _lazy_facade(__name__, {
    "registry": "EXPERIMENTS run_experiment",
})

__all__ = ["EXPERIMENTS", "run_experiment"]
