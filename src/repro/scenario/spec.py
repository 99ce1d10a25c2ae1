"""Declarative scenario specs: one file, two targets.

A scenario spec extends the :mod:`repro.sim.spec` vocabulary with a timed
chaos schedule, a target selector, budgets and pass criteria.  It loads
from JSON or TOML (stdlib :mod:`tomllib`), validates strictly (unknown
keys anywhere are :class:`~repro.errors.ConfigurationError`), and
compiles to either a simulator run (:mod:`repro.scenario.simdriver`) or a
live cluster run (:mod:`repro.scenario.runtimedriver`).

Schema (TOML spelling; JSON is isomorphic)::

    name = "flapping-ring-soak"
    target = "simulate"            # or "runtime"; CLI --target overrides
    protocol = "ssmfp"             # registry name
    seed = 7
    repeat = 1                     # campaign repetitions (per-run seeds)

    [topology]
    name = "ring"
    kwargs = {n = 8}

    [workload]                     # shared vocabulary for both targets
    name = "uniform"               # uniform | hotspot (runtime) + the
    kwargs = {count = 60}          # sim-only: permutation | burst | ...

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

    [sim]                          # simulate-only extras (sim.spec keys)
    routing = {mode = "selfstab"}
    daemon = {name = "distributed"}

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

from repro.core.registry import resolve
from repro.errors import ConfigurationError
from repro.network.graph import Network
from repro.network.topologies import topology_by_name
from repro.scenario.actions import ACTIONS, ScheduleEvent, validate_schedule

_TOP_KEYS = frozenset(
    {
        "name", "label", "target", "protocol", "seed", "repeat",
        "topology", "workload", "clock", "schedule", "budgets", "pass",
        "sim", "runtime", "matrix",
    }
)
_TOPOLOGY_KEYS = frozenset({"name", "kwargs"})
_WORKLOAD_KEYS = frozenset({"name", "kwargs"})
_CLOCK_KEYS = frozenset({"sim_steps_per_unit", "runtime_s_per_unit"})
_BUDGET_KEYS = frozenset({"max_steps", "wall_s", "messages"})
_PASS_KEYS = frozenset(
    {"deliver_all", "max_duplicates", "max_steps", "max_rounds",
     "max_wall_s", "max_latency_p99_s"}
)
#: Simulate-only extras, passed through to :func:`repro.sim.spec`.
_SIM_KEYS = frozenset(
    {"routing", "garbage", "scramble_choice_queues", "daemon",
     "protocol_options", "ledger_strict"}
)
#: Runtime-only extras, passed through to :class:`ClusterSpec`.
_RUNTIME_KEYS = frozenset(
    {"transport", "procs", "window", "max_batch", "netem", "drain_grace",
     "tick", "port_base"}
)
#: Workloads with a shared meaning on both targets (the simulator accepts
#: more — validated per-target at compile time).
_SHARED_WORKLOADS = frozenset({"uniform", "hotspot"})
_SIM_ONLY_WORKLOADS = frozenset({"permutation", "burst", "single", "same_payload"})

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

        if "topology" not in data:
            raise ConfigurationError("scenario needs a 'topology' section")
        topology = data["topology"]
        _reject_unknown("topology", topology, _TOPOLOGY_KEYS)
        if "name" not in topology:
            raise ConfigurationError("scenario section 'topology' needs a 'name'")
        try:
            net = topology_by_name(
                topology["name"], **topology.get("kwargs", {})
            )
        except TypeError as exc:
            raise ConfigurationError(
                f"bad topology kwargs for {topology['name']!r}: {exc}"
            ) from None

        workload = data.get("workload", {"name": "uniform", "kwargs": {"count": 50}})
        _reject_unknown("workload", workload, _WORKLOAD_KEYS)
        wl_name = workload.get("name")
        if wl_name not in _SHARED_WORKLOADS | _SIM_ONLY_WORKLOADS:
            raise ConfigurationError(
                f"unknown workload {wl_name!r}; known: "
                f"{sorted(_SHARED_WORKLOADS | _SIM_ONLY_WORKLOADS)}"
            )
        wl_kwargs = dict(workload.get("kwargs", {}))
        if "seed" in wl_kwargs:
            raise ConfigurationError(
                "workload kwargs must not set 'seed' — the scenario 'seed' "
                "governs both targets (campaign repeats offset it per run)"
            )
        if target == "runtime":
            if wl_name not in _SHARED_WORKLOADS:
                raise ConfigurationError(
                    f"workload {wl_name!r} is simulate-only; the runtime "
                    f"target supports {sorted(_SHARED_WORKLOADS)}"
                )
            if wl_name == "hotspot" and int(wl_kwargs.get("dest", 0)) != 0:
                raise ConfigurationError(
                    "the runtime hotspot workload targets dest=0"
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

        sim_extras = dict(data.get("sim", {}))
        _reject_unknown("sim", sim_extras, _SIM_KEYS)
        runtime_extras = dict(data.get("runtime", {}))
        _reject_unknown("runtime", runtime_extras, _RUNTIME_KEYS)
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

        return cls(
            name=str(data.get("name", "scenario")),
            target=target,
            protocol=protocol,
            seed=int(data.get("seed", 0)),
            repeat=repeat,
            topology={
                "name": topology["name"],
                "kwargs": dict(topology.get("kwargs", {})),
            },
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

    @classmethod
    def from_file(cls, path, target: Optional[str] = None) -> "ScenarioSpec":
        """Load + validate a scenario file; ``target`` overrides the
        spec's own (the acceptance path: one file, both targets)."""
        data = load_scenario_file(path)
        if target is not None:
            if not isinstance(data, dict):
                raise ConfigurationError(
                    f"{path}: scenario file must contain an object"
                )
            data = {**data, "target": target}
        if not isinstance(data, dict):
            raise ConfigurationError(f"{path}: scenario file must contain an object")
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

    def messages(self) -> int:
        """Workload size on either target (floods counted separately)."""
        net = self.build_network()
        name = self.workload["name"]
        kwargs = self.workload["kwargs"]
        if name == "uniform":
            return int(kwargs.get("count", 50))
        if name == "hotspot":
            return int(kwargs.get("per_source", 2)) * max(net.n - 1, 1)
        if name == "permutation":
            return net.n
        if name == "burst":
            return int(kwargs.get("bursts", 3)) * int(kwargs.get("burst_size", 5))
        if name == "single":
            return 1
        if name == "same_payload":
            return int(kwargs.get("count", 10))
        raise ConfigurationError(f"unknown workload {name!r}")

    def steps_at(self, units: float) -> int:
        """Lower an abstract time to the simulator step clock."""
        return max(0, round(units * self.sim_steps_per_unit))

    def seconds_at(self, units: float) -> float:
        """Lower an abstract time to runtime seconds from start."""
        return max(0.0, units * self.runtime_s_per_unit)

    def sim_spec(self) -> Dict[str, Any]:
        """The :mod:`repro.sim.spec` dict this scenario's base system
        corresponds to (no schedule — the driver applies that live)."""
        spec: Dict[str, Any] = {
            "topology": copy.deepcopy(self.topology),
            "workload": {
                "name": self.workload["name"],
                "kwargs": dict(self.workload["kwargs"]),
            },
            "protocol": self.protocol,
            "seed": self.seed,
        }
        for key in ("routing", "garbage", "scramble_choice_queues",
                    "daemon", "protocol_options", "ledger_strict"):
            if key in self.sim_extras:
                spec[key] = copy.deepcopy(self.sim_extras[key])
        return spec

    def flood_total(self) -> int:
        """Messages scheduled ``flood`` events add on top of the workload."""
        return sum(
            int(event.kwargs["count"])
            for event in self.schedule
            if event.action == "flood"
        )

    def smoked(self) -> "ScenarioSpec":
        """A budget-capped copy for CI smoke runs: fewer messages, tight
        step/wall budgets, single repetition, small floods.  The schedule
        and its timing are untouched — smoke mode shrinks cost, not
        chaos."""
        data = self.to_dict()
        wl = data["workload"]
        if wl["name"] == "uniform":
            wl["kwargs"]["count"] = min(int(wl["kwargs"].get("count", 50)), 24)
        elif wl["name"] == "hotspot":
            wl["kwargs"]["per_source"] = min(
                int(wl["kwargs"].get("per_source", 2)), 2
            )
        data["budgets"]["max_steps"] = min(
            int(data["budgets"]["max_steps"]), 60_000
        )
        data["budgets"]["wall_s"] = min(float(data["budgets"]["wall_s"]), 10.0)
        data["repeat"] = 1
        for event in data["schedule"]:
            if event["action"] == "flood":
                event["count"] = min(int(event["count"]), 6)
        return ScenarioSpec.from_dict(data)
