"""The chaos action vocabulary of scenario schedules.

A schedule is a list of timed events; every event names an *action* from
the registry below plus action-specific kwargs.  ``at``/``until`` are in
abstract **time units** — the two compilers lower units onto the
simulator step clock (``clock.sim_steps_per_unit``) or the runtime wall
clock (``clock.runtime_s_per_unit``), so one spec file drives both
targets.

Validation is strict and total: unknown actions, unknown kwargs, events
outside the topology (a flood from a node that does not exist, a
partition cutting a non-edge), missing/forbidden ``until`` windows and
two windowed events fighting over the same resource (the same edge, the
same node, the routing tables, the netem knobs) in overlapping windows
are all :class:`~repro.errors.ConfigurationError`\\ s — a chaos campaign
that silently does less than its spec says would be vacuously green.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.errors import ConfigurationError, check_fraction
from repro.network.graph import Network
from repro.types import normalized_edge

#: Keys every schedule event understands besides action kwargs.
RESERVED_EVENT_KEYS = ("at", "until", "action")
#: Action kwargs that are durations in time units, lowered with the times.
_DURATION_KEYS = ("period", "down")


@dataclass(frozen=True)
class ActionDef:
    """Static description of one chaos action."""

    name: str
    #: Spec targets the action can lower to ({"simulate", "runtime"}).
    targets: FrozenSet[str]
    #: Window discipline: "required" (until must be given), "optional"
    #: (one-shot without, windowed with) or "forbidden" (one-shot only).
    windowed: str
    #: Allowed kwargs, or None when the action's validator owns them
    #: (``netem``: ``NetemConfig.from_spec``, imported lazily so that
    #: loading the scenario layer never loads asyncio).
    keys: Optional[Tuple[str, ...]]
    doc: str


ACTIONS: Dict[str, ActionDef] = {
    action.name: action
    for action in (
        ActionDef(
            "corrupt_routing",
            frozenset({"simulate"}),
            "optional",
            ("fraction", "period"),
            "re-corrupt a fraction of live routing tables (burst, or "
            "periodic bursts every `period` units while windowed)",
        ),
        ActionDef(
            "garbage",
            frozenset({"simulate"}),
            "forbidden",
            ("fraction",),
            "plant invalid messages into currently-empty buffers "
            "(mid-run arbitrary garbage; in-flight valid traffic is "
            "never overwritten — the paper's fault model)",
        ),
        ActionDef(
            "link_flap",
            frozenset({"simulate", "runtime"}),
            "required",
            ("period", "down", "edges"),
            "every `period` units one random edge (from `edges`, default "
            "all) goes down for `down` units",
        ),
        ActionDef(
            "partition",
            frozenset({"simulate", "runtime"}),
            "required",
            ("groups", "edges"),
            "silence the cut between `groups` (or the explicit `edges`) "
            "for the window, then heal",
        ),
        ActionDef(
            "crash",
            frozenset({"simulate", "runtime"}),
            "required",
            ("node",),
            "fail-pause one node for the window, then restart it",
        ),
        ActionDef(
            "flood",
            frozenset({"simulate", "runtime"}),
            "forbidden",
            ("source", "dest", "count", "payload"),
            "inject `count` same-payload messages source->dest (the "
            "adversarial duplicate-payload workload, mid-run)",
        ),
        ActionDef(
            "netem",
            frozenset({"runtime"}),
            "optional",
            None,
            "change transport fault knobs for the window (reverted at "
            "`until`; permanent without one)",
        ),
    )
}


@dataclass(frozen=True)
class ScheduleEvent:
    """One validated, normalized schedule entry."""

    index: int
    at: float
    until: Optional[float]
    action: str
    kwargs: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Canonical (flattened) spec form."""
        out: Dict[str, Any] = {"at": self.at, "action": self.action}
        if self.until is not None:
            out["until"] = self.until
        for key in sorted(self.kwargs):
            out[key] = self.kwargs[key]
        return out

    def on_clock(self, to_clock: Callable[[float], Any]) -> "ScheduleEvent":
        """This event with every time in it (``at``, ``until``, and the
        ``period`` / ``down`` durations) lowered from units by ``to_clock``:
        the one step that puts a schedule on a target's clock."""
        kwargs = dict(self.kwargs)
        for key in _DURATION_KEYS:
            if key in kwargs:
                kwargs[key] = to_clock(kwargs[key])
        return replace(
            self,
            at=to_clock(self.at),
            until=None if self.until is None else to_clock(self.until),
            kwargs=kwargs,
        )


def _err(index: int, message: str) -> ConfigurationError:
    return ConfigurationError(f"schedule[{index}]: {message}")


def _check_node(index: int, net: Network, value: Any, what: str) -> int:
    try:
        node = int(value)
    except (TypeError, ValueError):
        raise _err(index, f"{what} must be a processor id, got {value!r}") from None
    if not 0 <= node < net.n:
        raise _err(index, f"{what} {node} outside topology (n={net.n})")
    return node


def _check_edge(index: int, net: Network, value: Any) -> Tuple[int, int]:
    try:
        u, v = value
    except (TypeError, ValueError):
        raise _err(index, f"edge must be a [u, v] pair, got {value!r}") from None
    u = _check_node(index, net, u, "edge endpoint")
    v = _check_node(index, net, v, "edge endpoint")
    if not net.are_neighbors(u, v):
        raise _err(index, f"({u}, {v}) is not an edge of the topology")
    return normalized_edge(u, v)


def _partition_edges(
    index: int, net: Network, kwargs: Dict[str, Any]
) -> List[Tuple[int, int]]:
    """The cut edges of a partition event — explicit, or derived from two
    disjoint node groups."""
    if ("groups" in kwargs) == ("edges" in kwargs):
        raise _err(index, "partition needs exactly one of 'groups' or 'edges'")
    if "edges" in kwargs:
        edges = [_check_edge(index, net, e) for e in kwargs["edges"]]
        if not edges:
            raise _err(index, "partition 'edges' must not be empty")
        return sorted(set(edges))
    groups = kwargs["groups"]
    if len(groups) != 2:
        raise _err(index, f"partition 'groups' must be 2 lists, got {len(groups)}")
    sides = [
        {_check_node(index, net, p, "group member") for p in group}
        for group in groups
    ]
    if not sides[0] or not sides[1]:
        raise _err(index, "partition groups must be non-empty")
    if sides[0] & sides[1]:
        raise _err(index, f"partition groups overlap: {sorted(sides[0] & sides[1])}")
    cut = sorted(
        edge
        for edge in net.edges
        if (edge[0] in sides[0]) != (edge[1] in sides[0])
        and (edge[0] in sides[0] | sides[1])
        and (edge[1] in sides[0] | sides[1])
    )
    if not cut:
        raise _err(index, "partition groups share no edges to cut")
    return cut


def validate_event(
    index: int, raw: Dict[str, Any], net: Network
) -> ScheduleEvent:
    """Validate and normalize one raw schedule entry."""
    if not isinstance(raw, dict):
        raise _err(index, f"event must be an object, got {type(raw).__name__}")
    if "action" not in raw:
        raise _err(index, "event needs an 'action'")
    action = raw["action"]
    definition = ACTIONS.get(action)
    if definition is None:
        raise _err(
            index, f"unknown action {action!r}; known: {sorted(ACTIONS)}"
        )
    if definition.keys is not None:
        valid = set(RESERVED_EVENT_KEYS) | set(definition.keys)
        unknown = sorted(set(raw) - valid)
        if unknown:
            raise _err(
                index,
                f"unknown key(s) {unknown} for action {action!r}; "
                f"valid keys: {sorted(valid)}",
            )
    if "at" not in raw:
        raise _err(index, "event needs an 'at' time")
    try:
        at = float(raw["at"])
    except (TypeError, ValueError):
        raise _err(index, f"'at' must be a number, got {raw['at']!r}") from None
    if at < 0:
        raise _err(index, f"'at' must be >= 0, got {at}")
    until: Optional[float] = None
    if raw.get("until") is not None:
        try:
            until = float(raw["until"])
        except (TypeError, ValueError):
            raise _err(
                index, f"'until' must be a number, got {raw['until']!r}"
            ) from None
        if until <= at:
            raise _err(index, f"'until' ({until}) must be > 'at' ({at})")
    if definition.windowed == "required" and until is None:
        raise _err(index, f"action {action!r} needs an 'until' window")
    if definition.windowed == "forbidden" and until is not None:
        raise _err(index, f"action {action!r} is a one-shot; drop 'until'")

    kwargs = {k: raw[k] for k in raw if k not in RESERVED_EVENT_KEYS}
    if action == "corrupt_routing":
        if "fraction" in kwargs:
            kwargs["fraction"] = check_fraction(
                f"schedule[{index}]: fraction", kwargs["fraction"]
            )
        kwargs.setdefault("fraction", 0.5)
        period = float(kwargs.get("period", 1.0))
        if period <= 0:
            raise _err(index, f"period must be positive, got {period}")
        kwargs["period"] = period
    elif action == "garbage":
        if "fraction" in kwargs:
            kwargs["fraction"] = check_fraction(
                f"schedule[{index}]: fraction", kwargs["fraction"]
            )
        kwargs.setdefault("fraction", 0.3)
    elif action == "link_flap":
        period = float(kwargs.get("period", 1.0))
        down = float(kwargs.get("down", 0.4))
        if period <= 0:
            raise _err(index, f"period must be positive, got {period}")
        if not 0 < down <= period:
            raise _err(index, f"down must be in (0, period], got {down}")
        kwargs["period"], kwargs["down"] = period, down
        if kwargs.get("edges") is not None:
            edges = [_check_edge(index, net, e) for e in kwargs["edges"]]
            if not edges:
                raise _err(index, "link_flap 'edges' must not be empty")
            kwargs["edges"] = [list(e) for e in sorted(set(edges))]
        else:
            kwargs.pop("edges", None)
    elif action == "partition":
        cut = _partition_edges(index, net, kwargs)
        if set(cut) == set(net.edges):
            raise _err(index, "partition would cut every edge of the topology")
        kwargs = {"edges": [list(e) for e in cut]}
    elif action == "crash":
        if "node" not in kwargs:
            raise _err(index, "crash needs a 'node'")
        kwargs["node"] = _check_node(index, net, kwargs["node"], "node")
    elif action == "flood":
        for key in ("source", "dest"):
            if key not in kwargs:
                raise _err(index, f"flood needs a '{key}'")
            kwargs[key] = _check_node(index, net, kwargs[key], key)
        if kwargs["source"] == kwargs["dest"]:
            raise _err(index, "flood source and dest must differ")
        count = int(kwargs.get("count", 8))
        if count < 1:
            raise _err(index, f"flood count must be >= 1, got {count}")
        kwargs["count"] = count
        kwargs.setdefault("payload", "flood")
    elif action == "netem":
        if not kwargs:
            raise _err(index, "netem event changes nothing; set a knob")
        # The one validator of netem knobs and of their names; the event
        # keeps the values it normalized.
        from repro.runtime.netem import NetemConfig

        try:
            config = NetemConfig.from_spec(kwargs)
        except ConfigurationError as exc:
            raise _err(index, str(exc)) from None
        for key in kwargs:
            value = getattr(config, key)
            kwargs[key] = list(value) if key == "latency" else value
    return ScheduleEvent(index=index, at=at, until=until, action=action, kwargs=kwargs)


def _resources(event: ScheduleEvent, net: Network) -> List[Tuple[str, Any]]:
    """The exclusive resources a *windowed* event occupies (one-shots
    never conflict)."""
    if event.until is None:
        return []
    if event.action == "corrupt_routing":
        return [("routing", None)]
    if event.action == "netem":
        return [("netem", None)]
    if event.action == "crash":
        return [("node", event.kwargs["node"])]
    if event.action == "partition":
        return [("edge", tuple(e)) for e in event.kwargs["edges"]]
    if event.action == "link_flap":
        edges = event.kwargs.get("edges")
        if edges is None:
            return [("edge", tuple(e)) for e in net.edges]
        return [("edge", tuple(e)) for e in edges]
    return []


def validate_schedule(
    raw_schedule: Any, net: Network
) -> List[ScheduleEvent]:
    """Validate a whole schedule: per-event checks plus the overlap audit.

    Two windowed events claiming the same resource in overlapping windows
    (two partitions fighting over one edge, two crashes of one node, two
    corruption regimes at once) make the spec ambiguous — which one "wins"
    would depend on task scheduling — so they are rejected outright.
    """
    if not isinstance(raw_schedule, (list, tuple)):
        raise ConfigurationError(
            f"'schedule' must be a list of events, "
            f"got {type(raw_schedule).__name__}"
        )
    events = [
        validate_event(index, raw, net) for index, raw in enumerate(raw_schedule)
    ]
    claims: Dict[Tuple[str, Any], List[ScheduleEvent]] = {}
    for event in events:
        for resource in _resources(event, net):
            for other in claims.get(resource, []):
                if event.at < other.until and other.at < event.until:  # type: ignore[operator]
                    raise ConfigurationError(
                        f"schedule[{other.index}] ({other.action}) and "
                        f"schedule[{event.index}] ({event.action}) overlap "
                        f"on {resource[0]}"
                        + (f" {resource[1]}" if resource[1] is not None else "")
                        + f" during [{max(event.at, other.at)}, "
                        f"{min(event.until, other.until)})"  # type: ignore[arg-type]
                    )
            claims.setdefault(resource, []).append(event)
    return events
