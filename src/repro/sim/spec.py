"""Declarative simulation specifications.

A *spec* is a plain JSON-able dictionary describing a complete simulation —
topology, workload, corruption, daemon, seed — that
:func:`simulation_from_spec` turns into a ready
:class:`~repro.sim.runner.Simulation`.  Specs power the recording/replay
feature (:mod:`repro.sim.recording`) and make campaign definitions
data, not code.

Schema (all sections optional except ``topology``)::

    {
      "topology": {"name": "ring", "kwargs": {"n": 8}},
      "workload": {"name": "uniform", "kwargs": {"count": 20, "seed": 1}},
      "routing":  {"mode": "selfstab",
                   "corruption": {"kind": "random", "fraction": 1.0}},
      "garbage":  {"fraction": 0.4},
      "scramble_choice_queues": true,
      "daemon":   {"name": "distributed", "kwargs": {"p_select": 0.5}},
      "protocol": "ssmfp",
      "protocol_options": {"choice_policy": "fifo"},
      "seed": 7
    }

``protocol`` is a registry name (:mod:`repro.core.registry`; default
``"ssmfp"``); ``protocol_options`` are keyword arguments of its constructor.

The workload ``kwargs`` are passed to the named generator with ``n``
injected; daemon ``kwargs`` likewise get the seed injected unless given.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.app import workload as workload_mod
from repro.errors import ConfigurationError
from repro.network.topologies import topology_by_name
from repro.sim.runner import Simulation, build_simulation
from repro.statemodel.daemon import (
    CentralRandomDaemon,
    DistributedRandomDaemon,
    RoundRobinDaemon,
    SynchronousDaemon,
)

_WORKLOADS = {
    "uniform": workload_mod.uniform_workload,
    "permutation": workload_mod.permutation_workload,
    "hotspot": workload_mod.hotspot_workload,
    "burst": workload_mod.burst_workload,
    "single": workload_mod.single_message_workload,
    "same_payload": workload_mod.adversarial_same_payload_workload,
}

_DAEMONS = {
    "synchronous": lambda **kw: SynchronousDaemon(),
    "round_robin": lambda **kw: RoundRobinDaemon(),
    "central": lambda seed=0, **kw: CentralRandomDaemon(seed=seed, **kw),
    "distributed": lambda seed=0, **kw: DistributedRandomDaemon(seed=seed, **kw),
}

#: Workload generators that take the processor count as first argument.
_N_FIRST = {"uniform", "permutation", "hotspot", "burst"}

#: Every key the spec schema understands, per section.  ``label`` is
#: sweep-file metadata (echoed into rows, never interpreted here).
_TOP_KEYS = frozenset(
    {
        "topology", "workload", "routing", "garbage",
        "scramble_choice_queues", "daemon", "protocol", "protocol_options",
        "seed", "ledger_strict", "label",
    }
)
_TOPOLOGY_KEYS = frozenset({"name", "kwargs"})
_WORKLOAD_KEYS = frozenset({"name", "kwargs"})
_ROUTING_KEYS = frozenset({"mode", "corruption"})
_CORRUPTION_KEYS = frozenset({"kind", "fraction", "seed"})
_GARBAGE_KEYS = frozenset({"fraction", "seed"})
_DAEMON_KEYS = frozenset({"name", "kwargs"})


def _reject_unknown(section: str, mapping: Any, allowed: frozenset) -> None:
    """Fail loudly on unknown keys: a typo must never silently become a
    no-op knob (the netem layer has the same contract)."""
    if not isinstance(mapping, dict):
        raise ConfigurationError(
            f"spec section {section!r} must be an object, "
            f"got {type(mapping).__name__}"
        )
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in spec section {section!r}; "
            f"valid keys: {sorted(allowed)}"
        )


def _build(section: str, builder, *args, **kwargs):
    """Call a builder with kwargs taken verbatim from the spec: a misspelt
    or missing argument is a spec error naming the section, not a crash."""
    try:
        return builder(*args, **kwargs)
    except TypeError as exc:
        raise ConfigurationError(
            f"bad kwargs in spec section {section!r}: {exc}"
        ) from None


def simulation_from_spec(
    spec: Dict[str, Any], obs=None, tracer=None
) -> Simulation:
    """Build a :class:`Simulation` from a declarative spec (see module
    docstring for the schema).  ``obs``/``tracer`` attach observability
    exactly as in :func:`~repro.sim.runner.build_simulation`."""
    _reject_unknown("<top level>", spec, _TOP_KEYS)
    if "topology" not in spec:
        raise ConfigurationError("spec needs a 'topology' section")
    seed = int(spec.get("seed", 0))

    topo = spec["topology"]
    _reject_unknown("topology", topo, _TOPOLOGY_KEYS)
    if "name" not in topo:
        raise ConfigurationError("spec section 'topology' needs a 'name'")
    net = _build("topology", topology_by_name, topo["name"], **topo.get("kwargs", {}))

    workload = None
    if "workload" in spec:
        wl = spec["workload"]
        _reject_unknown("workload", wl, _WORKLOAD_KEYS)
        if "name" not in wl:
            raise ConfigurationError("spec section 'workload' needs a 'name'")
        name = wl["name"]
        try:
            builder = _WORKLOADS[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown workload {name!r}; known: {sorted(_WORKLOADS)}"
            ) from None
        kwargs = dict(wl.get("kwargs", {}))
        if name in _N_FIRST:
            kwargs.setdefault("seed", seed)
            workload = _build("workload", builder, net.n, **kwargs)
        else:
            workload = _build("workload", builder, **kwargs)

    routing = spec.get("routing", {})
    _reject_unknown("routing", routing, _ROUTING_KEYS)
    routing_mode = routing.get("mode", "selfstab")
    corruption = routing.get("corruption")
    if corruption is not None:
        _reject_unknown("routing.corruption", corruption, _CORRUPTION_KEYS)
        corruption = dict(corruption)
        corruption.setdefault("seed", seed)

    garbage = spec.get("garbage")
    if garbage is not None:
        _reject_unknown("garbage", garbage, _GARBAGE_KEYS)
        garbage = dict(garbage)
        garbage.setdefault("seed", seed)

    daemon = None
    if "daemon" in spec:
        d = spec["daemon"]
        _reject_unknown("daemon", d, _DAEMON_KEYS)
        if "name" not in d:
            raise ConfigurationError("spec section 'daemon' needs a 'name'")
        try:
            factory = _DAEMONS[d["name"]]
        except KeyError:
            raise ConfigurationError(
                f"unknown daemon {d['name']!r}; known: {sorted(_DAEMONS)}"
            ) from None
        kwargs = dict(d.get("kwargs", {}))
        kwargs.setdefault("seed", seed)
        daemon = _build("daemon", factory, **kwargs)

    return _build(
        "protocol_options",
        build_simulation,
        net,
        workload=workload,
        daemon=daemon,
        seed=seed,
        routing_mode=routing_mode,
        routing_corruption=corruption,
        garbage=garbage,
        scramble_choice_queues=bool(spec.get("scramble_choice_queues", False)),
        ledger_strict=bool(spec.get("ledger_strict", True)),
        protocol=str(spec.get("protocol", "ssmfp")),
        protocol_options=spec.get("protocol_options"),
        obs=obs,
        tracer=tracer,
    )
