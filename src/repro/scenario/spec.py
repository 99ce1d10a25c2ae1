"""Declarative scenario specs: one schema, two targets.

A scenario spec is *the* spec schema of this repository: a complete system
(topology, workload, protocol, seed, initial corruption), a timed chaos
schedule, a target selector, budgets and pass criteria.  The paper's
"arbitrary initial configuration" is the ``[sim]`` section — the chaos
event at t = 0 — and a spec with an empty schedule is a plain simulation.
It loads from JSON or TOML (stdlib :mod:`tomllib`), is validated once, at
parse time, for both targets (unknown keys anywhere, kwargs no builder
accepts, a workload the target cannot generate are all
:class:`~repro.errors.ConfigurationError`), and compiles to either a
simulator run (:mod:`repro.scenario.simdriver`) or a live cluster run
(:mod:`repro.scenario.runtimedriver`).

Schema (TOML spelling; JSON is isomorphic)::

    name = "flapping-ring-soak"
    target = "simulate"            # or "runtime"; CLI --target overrides
    protocol = "ssmfp"             # registry name
    seed = 7
    repeat = 1                     # campaign repetitions (per-run seeds)

    [topology]
    name = "ring"
    kwargs = {n = 8}

    [workload]                     # app.workload.workload_by_name
    name = "uniform"               # uniform | hotspot on both targets;
    kwargs = {count = 60}          # permutation | burst | single |
                                   # same_payload simulate-only.  kwargs
                                   # may carry its own ``seed`` (simulate)

    [clock]                        # abstract units -> concrete clocks
    sim_steps_per_unit = 50
    runtime_s_per_unit = 0.25

    [[schedule]]                   # the chaos timeline (abstract units)
    at = 1.0
    until = 5.0
    action = "link_flap"
    period = 0.5
    down = 0.2

    [budgets]
    max_steps = 200000             # simulate
    wall_s = 30.0                  # runtime deadline / campaign guard

    [pass]
    deliver_all = true             # delivered == generated, none lost
    max_rounds = 0                 # 0 = no ceiling (simulate)
    max_wall_s = 0.0               # 0 = no ceiling

    [sim]                          # simulate-only: the initial
                                   # configuration and the daemon
    routing = {mode = "selfstab",  # or "static"
               corruption = {kind = "random", fraction = 1.0}}  # | "worst"
    garbage = {fraction = 0.4}     # invalid messages pre-planted
    scramble_choice_queues = true
    daemon = {name = "distributed", kwargs = {p_select = 0.5}}
                                   # statemodel.daemon.daemon_by_name
    protocol_options = {choice_policy = "fifo"}   # constructor kwargs
    ledger_strict = true
                                   # corruption/garbage/daemon kwargs take
                                   # an own ``seed`` (default: the spec's)

    [runtime]                      # runtime-only extras (ClusterSpec keys)
    transport = "local"
    netem = {loss = 0.05}

    [matrix]                       # campaign axes: dotted path -> values
    "protocol" = ["ssmfp", "ssmfp2"]
    "topology.kwargs.n" = [6, 10]
"""

from __future__ import annotations

import copy
import json
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.app.workload import Workload, workload_by_name
from repro.core.registry import resolve
from repro.errors import ConfigurationError, check_fraction
from repro.network.graph import Network
from repro.network.topologies import topology_by_name
from repro.scenario.actions import (
    ACTIONS,
    ScheduleEvent,
    validate_schedule,
)
from repro.sim.runner import Simulation, build_simulation
from repro.statemodel.daemon import daemon_by_name

_TOP_KEYS = frozenset(
    {
        "name", "label", "target", "protocol", "seed", "repeat",
        "topology", "workload", "clock", "schedule", "budgets", "pass",
        "sim", "runtime", "matrix",
    }
)
#: Sections naming a builder: topology, workload, sim.daemon.
_NAMED_KEYS = frozenset({"name", "kwargs"})
_CLOCK_KEYS = frozenset({"sim_steps_per_unit", "runtime_s_per_unit"})
_BUDGET_KEYS = frozenset({"max_steps", "wall_s"})
_PASS_KEYS = frozenset(
    {"deliver_all", "max_duplicates", "max_steps", "max_rounds",
     "max_wall_s", "max_latency_p99_s"}
)
#: Simulate-only: the initial configuration and the daemon.
_SIM_KEYS = frozenset(
    {"routing", "garbage", "scramble_choice_queues", "daemon",
     "protocol_options", "ledger_strict"}
)
_ROUTING_KEYS = frozenset({"mode", "corruption"})
_CORRUPTION_KEYS = frozenset({"kind", "fraction", "seed"})
_GARBAGE_KEYS = frozenset({"fraction", "seed"})
#: Runtime-only extras: the :class:`ClusterSpec` fields a spec may set,
#: each with its coercion.  A key the spec leaves unset keeps the
#: ClusterSpec default.
RUNTIME_KEYS = {
    "transport": str, "port_base": int, "tick": float, "window": int,
    "max_batch": int, "netem": copy.deepcopy,
}

TARGETS = ("simulate", "runtime")


def _reject_unknown(section: str, mapping: Any, allowed: frozenset) -> None:
    if not isinstance(mapping, dict):
        raise ConfigurationError(
            f"scenario section {section!r} must be an object, "
            f"got {type(mapping).__name__}"
        )
    unknown = sorted(set(mapping) - allowed)
    if unknown:
        raise ConfigurationError(
            f"unknown key(s) {unknown} in scenario section {section!r}; "
            f"valid keys: {sorted(allowed)}"
        )


def _named(section: str, mapping: Any) -> Tuple[str, Dict[str, Any]]:
    """A ``{name, kwargs}`` section, validated and normalized."""
    _reject_unknown(section, mapping, _NAMED_KEYS)
    if "name" not in mapping:
        raise ConfigurationError(
            f"scenario section {section!r} needs a 'name'"
        )
    kwargs = mapping.get("kwargs", {})
    if not isinstance(kwargs, dict):
        raise ConfigurationError(
            f"scenario section {section!r}: kwargs must be an object, "
            f"got {type(kwargs).__name__}"
        )
    return mapping["name"], dict(kwargs)


def _build(section: str, builder, *args, **kwargs):
    """Call a builder with kwargs taken verbatim from the spec: a misspelt
    or missing argument, or a value the builder refuses, is a spec error
    naming the section, not a crash."""
    try:
        return builder(*args, **kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"bad kwargs in scenario section {section!r}: {exc}"
        ) from None


def load_scenario_file(path) -> Dict[str, Any]:
    """Read a scenario file (``.toml`` via :mod:`tomllib`, anything else
    as JSON) into a raw dict; readable errors, never a stack trace."""
    target = Path(path)
    if not target.exists():
        raise ConfigurationError(f"scenario file not found: {target}")
    try:
        if target.suffix.lower() == ".toml":
            with target.open("rb") as fh:
                return tomllib.load(fh)
        return json.loads(target.read_text(encoding="utf-8"))
    except tomllib.TOMLDecodeError as exc:
        raise ConfigurationError(f"{target}: invalid TOML: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"{target}: invalid JSON: {exc}") from None


@dataclass
class ScenarioSpec:
    """One validated scenario: everything both compilers need."""

    name: str
    target: str
    protocol: str
    seed: int
    repeat: int
    topology: Dict[str, Any]
    workload: Dict[str, Any]
    sim_extras: Dict[str, Any]
    runtime_extras: Dict[str, Any]
    sim_steps_per_unit: int
    runtime_s_per_unit: float
    schedule: List[ScheduleEvent]
    budgets: Dict[str, Any]
    pass_criteria: Dict[str, Any]
    matrix: Dict[str, List[Any]] = field(default_factory=dict)
    label: Optional[str] = None

    # -- construction --------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ScenarioSpec":
        """Validate a raw spec dict into a :class:`ScenarioSpec`."""
        _reject_unknown("<top level>", data, _TOP_KEYS)

        target = str(data.get("target", "simulate"))
        if target not in TARGETS:
            raise ConfigurationError(
                f"target must be one of {list(TARGETS)}, got {target!r}"
            )
        protocol = str(data.get("protocol", "ssmfp"))
        resolve(protocol)  # unknown protocol names fail here, readably

        seed = int(data.get("seed", 0))

        if "topology" not in data:
            raise ConfigurationError("scenario needs a 'topology' section")
        topo_name, topo_kwargs = _named("topology", data["topology"])
        net = _build("topology", topology_by_name, topo_name, **topo_kwargs)

        wl_name, wl_kwargs = _named(
            "workload",
            data.get("workload", {"name": "uniform", "kwargs": {"count": 50}}),
        )
        if target == "runtime" and "seed" in wl_kwargs:
            raise ConfigurationError(
                "workload kwargs must not set 'seed' on the runtime target "
                "— a cluster has one seed, the scenario's"
            )

        clock = data.get("clock", {})
        _reject_unknown("clock", clock, _CLOCK_KEYS)
        sim_spu = int(clock.get("sim_steps_per_unit", 50))
        runtime_spu = float(clock.get("runtime_s_per_unit", 0.25))
        if sim_spu < 1:
            raise ConfigurationError(
                f"sim_steps_per_unit must be >= 1, got {sim_spu}"
            )
        if runtime_spu <= 0:
            raise ConfigurationError(
                f"runtime_s_per_unit must be positive, got {runtime_spu}"
            )

        schedule = validate_schedule(data.get("schedule", []), net)
        for event in schedule:
            if target not in ACTIONS[event.action].targets:
                raise ConfigurationError(
                    f"schedule[{event.index}]: action {event.action!r} "
                    f"cannot lower to target {target!r} (supports "
                    f"{sorted(ACTIONS[event.action].targets)})"
                )

        budgets = dict(data.get("budgets", {}))
        _reject_unknown("budgets", budgets, _BUDGET_KEYS)
        budgets.setdefault("max_steps", 200_000)
        budgets.setdefault("wall_s", 30.0)
        if int(budgets["max_steps"]) < 1:
            raise ConfigurationError("budgets.max_steps must be >= 1")
        if float(budgets["wall_s"]) <= 0:
            raise ConfigurationError("budgets.wall_s must be positive")

        pass_criteria = dict(data.get("pass", {}))
        _reject_unknown("pass", pass_criteria, _PASS_KEYS)
        pass_criteria.setdefault("deliver_all", True)

        sim_extras = data.get("sim", {})
        _reject_unknown("sim", sim_extras, _SIM_KEYS)
        sim_extras = copy.deepcopy(sim_extras)
        routing = sim_extras.get("routing", {})
        _reject_unknown("sim.routing", routing, _ROUTING_KEYS)
        for section, mapping, keys in (
            ("sim.routing.corruption", routing.get("corruption"), _CORRUPTION_KEYS),
            ("sim.garbage", sim_extras.get("garbage"), _GARBAGE_KEYS),
        ):
            if mapping is not None:
                _reject_unknown(section, mapping, keys)
                if "fraction" in mapping:
                    check_fraction(f"{section}.fraction", mapping["fraction"])
        if "daemon" in sim_extras:
            _named("sim.daemon", sim_extras["daemon"])

        runtime_extras = data.get("runtime", {})
        _reject_unknown("runtime", runtime_extras, frozenset(RUNTIME_KEYS))
        runtime_extras = dict(runtime_extras)
        from repro.runtime.cluster import ClusterSpec

        ClusterSpec.check_sizes(**{
            key: runtime_extras[key]
            for key in ("window", "max_batch")
            if key in runtime_extras
        })
        if "netem" in runtime_extras and runtime_extras["netem"] is not None:
            # Validate eagerly: a typo'd netem knob must fail at parse
            # time, not 30 s into a soak.
            from repro.runtime.netem import NetemConfig

            NetemConfig.from_spec(runtime_extras["netem"])

        matrix = data.get("matrix", {})
        if not isinstance(matrix, dict):
            raise ConfigurationError("'matrix' must map axis paths to lists")
        for path, values in matrix.items():
            if not isinstance(values, list) or not values:
                raise ConfigurationError(
                    f"matrix axis {path!r} must be a non-empty list"
                )

        repeat = int(data.get("repeat", 1))
        if repeat < 1:
            raise ConfigurationError(f"repeat must be >= 1, got {repeat}")

        spec = cls(
            name=str(data.get("name", "scenario")),
            target=target,
            protocol=protocol,
            seed=seed,
            repeat=repeat,
            topology={"name": topo_name, "kwargs": topo_kwargs},
            workload={"name": wl_name, "kwargs": wl_kwargs},
            sim_extras=sim_extras,
            runtime_extras=runtime_extras,
            sim_steps_per_unit=sim_spu,
            runtime_s_per_unit=runtime_spu,
            schedule=schedule,
            budgets=budgets,
            pass_criteria=pass_criteria,
            matrix={str(k): list(v) for k, v in matrix.items()},
            label=data.get("label"),
        )
        # Whatever no key set can catch — kwargs of the workload, daemon
        # and protocol builders, the routing/corruption vocabulary — is
        # validated by building the system once, whichever the target.
        workload = spec.build_simulation().workload
        if target == "runtime":
            from repro.scenario.runtimedriver import build_cluster_spec

            if build_cluster_spec(spec).build_submissions() != workload.submissions:
                raise ConfigurationError(
                    f"the runtime target cannot honour workload kwargs "
                    f"{wl_kwargs}: a cluster generates {wl_name!r} from its "
                    f"size ({workload.size} messages) and the seed alone "
                    f"(uniform: count; hotspot: dest = 0, per_source)"
                )
        return spec

    @classmethod
    def from_file(cls, path, target: Optional[str] = None) -> "ScenarioSpec":
        """Load + validate a scenario file; ``target`` overrides the
        spec's own (the acceptance path: one file, both targets)."""
        data = load_scenario_file(path)
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: scenario file must contain an object")
        if target is not None:
            data = {**data, "target": target}
        return cls.from_dict(data)

    # -- canonical form ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """Canonical spec dict: parsing it again is a fixpoint (the
        round-trip property the tests pin)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "target": self.target,
            "protocol": self.protocol,
            "seed": self.seed,
            "repeat": self.repeat,
            "topology": copy.deepcopy(self.topology),
            "workload": copy.deepcopy(self.workload),
            "clock": {
                "sim_steps_per_unit": self.sim_steps_per_unit,
                "runtime_s_per_unit": self.runtime_s_per_unit,
            },
            "schedule": [event.to_dict() for event in self.schedule],
            "budgets": copy.deepcopy(self.budgets),
            "pass": copy.deepcopy(self.pass_criteria),
            "sim": copy.deepcopy(self.sim_extras),
            "runtime": copy.deepcopy(self.runtime_extras),
        }
        if self.matrix:
            out["matrix"] = copy.deepcopy(self.matrix)
        if self.label is not None:
            out["label"] = self.label
        return out

    # -- derived views -------------------------------------------------------

    def build_network(self) -> Network:
        return topology_by_name(
            self.topology["name"], **self.topology.get("kwargs", {})
        )

    def _seeded(self, section: Optional[Dict[str, Any]]) -> Optional[Dict[str, Any]]:
        """A seeded section, its ``seed`` defaulting to the scenario's."""
        return None if section is None else {"seed": self.seed, **section}

    def build_simulation(self, obs=None, tracer=None) -> Simulation:
        """The :class:`~repro.sim.runner.Simulation` this scenario starts
        from: its base system in its ``[sim]`` initial configuration (no
        schedule — the simulate driver applies that live).  ``obs`` and
        ``tracer`` attach observability exactly as in
        :func:`~repro.sim.runner.build_simulation`."""
        net = self.build_network()
        sim = self.sim_extras
        routing = sim.get("routing", {})
        daemon = None
        if "daemon" in sim:
            daemon = _build(
                "sim.daemon", daemon_by_name, sim["daemon"]["name"],
                **self._seeded(sim["daemon"].get("kwargs", {})),
            )
        return _build(
            "sim.protocol_options",
            build_simulation,
            net,
            workload=self.build_workload(net.n),
            daemon=daemon,
            seed=self.seed,
            routing_mode=routing.get("mode", "selfstab"),
            routing_corruption=self._seeded(routing.get("corruption")),
            garbage=self._seeded(sim.get("garbage")),
            scramble_choice_queues=bool(sim.get("scramble_choice_queues", False)),
            ledger_strict=bool(sim.get("ledger_strict", True)),
            protocol=self.protocol,
            protocol_options=sim.get("protocol_options"),
            obs=obs,
            tracer=tracer,
        )

    def build_workload(self, n: int) -> Workload:
        return _build(
            "workload", workload_by_name, self.workload["name"], n,
            **self._seeded(self.workload["kwargs"]),
        )

    def messages(self) -> int:
        """Workload size on either target (floods counted separately)."""
        return self.build_workload(self.build_network().n).size

    def steps_at(self, units: float) -> int:
        """Lower an abstract time to the simulator step clock."""
        return max(0, round(units * self.sim_steps_per_unit))

    def seconds_at(self, units: float) -> float:
        """Lower an abstract time to runtime seconds from start, to the
        microsecond."""
        return max(0.0, round(units * self.runtime_s_per_unit, 6))

    def smoked(self) -> "ScenarioSpec":
        """A budget-capped copy for CI smoke runs: fewer messages, tight
        step/wall budgets, single repetition, small floods.  The schedule
        and its timing are untouched — smoke mode shrinks cost, not
        chaos."""
        data = self.to_dict()
        wl = data["workload"]
        if wl["name"] == "uniform":
            wl["kwargs"]["count"] = min(int(wl["kwargs"]["count"]), 24)
        elif wl["name"] == "hotspot":
            wl["kwargs"]["per_source"] = min(int(wl["kwargs"]["per_source"]), 2)
        data["budgets"]["max_steps"] = min(
            int(data["budgets"]["max_steps"]), 60_000
        )
        data["budgets"]["wall_s"] = min(float(data["budgets"]["wall_s"]), 10.0)
        data["repeat"] = 1
        for event in data["schedule"]:
            if event["action"] == "flood":
                event["count"] = min(event["count"], 6)
        return ScenarioSpec.from_dict(data)
