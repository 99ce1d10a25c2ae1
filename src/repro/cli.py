"""Command-line interface.

Entry points (also available via ``python -m repro``):

* ``repro list`` — the experiment registry;
* ``repro experiment <id>`` — regenerate one figure/proposition table
  (``--jsonl`` also writes its tables as a machine-readable artifact);
* ``repro simulate`` — run an SSMFP simulation from declarative flags
  (topology, corruption, workload, daemon, seed — assembled into a
  scenario spec) and print the outcome,
  optionally watching one destination component live (``--watch``),
  exporting metrics/lifecycles (``--jsonl``) or printing one message's
  hop-by-hop causal timeline (``--timeline``);
* ``repro obs summarize|diff`` — inspect and compare JSONL artifacts;
* ``repro scenario run|campaign`` — declarative scenarios: one TOML/JSON
  spec (system + initial corruption + workload + timed fault schedule +
  budgets + pass criteria) compiled onto the simulator's step clock or
  the runtime's wall clock, optionally expanded over matrix axes
  (``docs/scenarios.md``);
* ``repro record`` / ``repro verify <record>`` — run a scenario spec on
  the simulator and write its outcome fingerprint; re-run a record and
  check the execution reproduces bit for bit (``repro verify`` without a
  record model-checks an instance exhaustively instead);
* ``repro runtime`` — run the protocol *live*: an asyncio cluster over an
  in-memory or TCP transport, optionally behind seeded fault injection,
  judged by the conformance oracle (``docs/runtime.md``).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.errors import (
    ConfigurationError,
    ReproError,
    TopologyError,
    check_fraction,
)

_TOPOLOGY_ARGS = {
    "line": ("n",),
    "ring": ("n",),
    "star": ("n",),
    "complete": ("n",),
    "hypercube": ("dim",),
    "grid": ("rows", "cols"),
    "torus": ("rows", "cols"),
    "fig1": (),
    "fig3": (),
}


def _add_topology_flags(parser, topology: str, **sizes: int) -> None:
    """``--topology`` and the size flags its builders take, with the
    subcommand's defaults."""
    parser.add_argument(
        "--topology", default=topology, choices=sorted(_TOPOLOGY_ARGS)
    )
    for flag, default in sizes.items():
        parser.add_argument(f"--{flag}", type=int, default=default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Snap-stabilizing message forwarding (SSMFP) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list the experiments of the registry")

    exp = sub.add_parser("experiment", help="regenerate one experiment")
    exp.add_argument("id", help="experiment id (e.g. F3, P5, T1, X1)")
    exp.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="also write the experiment's tables as a JSONL artifact",
    )

    alla = sub.add_parser("all", help="regenerate every experiment back to back")
    alla.add_argument(
        "--jsonl-dir", default=None, metavar="DIR",
        help="write one JSONL artifact per experiment into DIR",
    )

    rec = sub.add_parser(
        "record", help="run a spec file, write a reproducibility record"
    )
    rec.add_argument("spec", help="path to a scenario spec (.toml/.json)")
    rec.add_argument("-o", "--output", default=None, help="record output path")

    ver = sub.add_parser(
        "verify",
        help="re-run a record and check the fingerprint matches, or "
             "(without a record) model-check an instance exhaustively",
    )
    ver.add_argument(
        "record", nargs="?", default=None,
        help="path to a JSON record; omit to model-check the instance "
             "described by the flags below instead",
    )
    _add_topology_flags(ver, "line", n=3, rows=2, cols=2, dim=2)
    ver.add_argument(
        "--messages", type=int, default=2,
        help="submissions fed to the instance (round-robin sources, "
             "seeded random destinations)",
    )
    ver.add_argument(
        "--garbage", type=float, default=0.0,
        help="fraction of buffers pre-filled with invalid messages",
    )
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument(
        "--protocol", default="ssmfp", metavar="NAME",
        help="forwarding protocol to model-check (registry name; "
             "see repro.core.registry)",
    )
    ver.add_argument(
        "--reduction", default="none",
        choices=["none", "por", "symmetry", "full"],
        help="state-space reduction (safety search only)",
    )
    ver.add_argument(
        "--liveness", action="store_true",
        help="also search the reachable graph for fair livelocks",
    )
    ver.add_argument("--max-states", type=int, default=200_000)
    ver.add_argument(
        "--max-width", type=int, default=20_000,
        help="per-state daemon-selection fan-out cap",
    )
    ver.add_argument(
        "--log-every", type=int, default=0, metavar="STATES",
        help="print a progress row every STATES expanded states",
    )
    ver.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write verify metrics as a repro.obs/v1 JSONL artifact",
    )

    obs = sub.add_parser(
        "obs", help="inspect schema-versioned JSONL artifacts"
    )
    obs_sub = obs.add_subparsers(dest="obs_command", required=True)
    obs_sum = obs_sub.add_parser("summarize", help="summarize one artifact")
    obs_sum.add_argument("artifact", help="path to a .jsonl artifact")
    obs_diff = obs_sub.add_parser("diff", help="compare two artifacts")
    obs_diff.add_argument("a", help="baseline artifact")
    obs_diff.add_argument("b", help="candidate artifact")
    obs_diff.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="numeric differences at or below this are ignored",
    )

    scn = sub.add_parser(
        "scenario",
        help="run declarative chaos scenarios (docs/scenarios.md)",
    )
    scn_sub = scn.add_subparsers(dest="scenario_command", required=True)
    scn_run = scn_sub.add_parser(
        "run", help="run one scenario spec (TOML or JSON) once"
    )
    scn_run.add_argument("spec", help="path to a scenario spec (.toml/.json)")
    scn_run.add_argument(
        "--target", default=None, choices=["simulate", "runtime"],
        help="override the spec's execution target",
    )
    scn_run.add_argument(
        "--smoke", action="store_true",
        help="shrink workload and budgets for a fast CI-sized run",
    )
    scn_run.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write the run's metrics + fault timeline as a JSONL artifact",
    )
    scn_camp = scn_sub.add_parser(
        "campaign",
        help="expand the spec's matrix axes and run the whole family",
    )
    scn_camp.add_argument("spec", help="path to a scenario spec (.toml/.json)")
    scn_camp.add_argument(
        "--target", default=None, choices=["simulate", "runtime"],
        help="override the spec's execution target for every run",
    )
    scn_camp.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="fan runs out over N worker processes (default: serial)",
    )
    scn_camp.add_argument(
        "--smoke", action="store_true",
        help="shrink every run's workload and budgets for CI",
    )
    scn_camp.add_argument(
        "--artifact-dir", default=None, metavar="DIR",
        help="write one repro.obs/v1 artifact per run into DIR",
    )
    scn_camp.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write the campaign summary as a JSONL artifact",
    )

    run = sub.add_parser(
        "runtime",
        help="run a live asyncio cluster and check conformance",
    )
    _add_topology_flags(run, "ring", n=8, rows=3, cols=3, dim=3)
    run.add_argument("--messages", type=int, default=200)
    run.add_argument(
        "--workload", default="uniform", choices=["uniform", "hotspot"]
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--protocol", default="ssmfp", metavar="NAME",
        help="forwarding protocol the cluster runs (registry name; "
             "ssmfp2 caps lanes at window 1 — stop-and-wait hops)",
    )
    run.add_argument("--transport", default="local", choices=["local", "tcp"])
    run.add_argument(
        "--port-base", type=int, default=0,
        help="first TCP port (0 = auto-allocate free ports)",
    )
    run.add_argument(
        "--loss", type=float, default=0.0, help="per-record loss probability"
    )
    run.add_argument(
        "--dup", type=float, default=0.0,
        help="per-record duplication probability",
    )
    run.add_argument(
        "--reorder", type=float, default=0.0,
        help="per-record reorder probability",
    )
    run.add_argument(
        "--latency-ms", default=None, metavar="LO:HI",
        help="uniform per-record latency range in milliseconds",
    )
    run.add_argument("--deadline", type=float, default=60.0, metavar="S")
    run.add_argument(
        "--window", type=int, default=32,
        help="in-flight DATA window per (edge, destination) lane",
    )
    run.add_argument(
        "--max-batch", type=int, default=64,
        help="max records packed into one wire frame",
    )
    run.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write run metrics as a repro.obs/v1 JSONL artifact",
    )

    simp = sub.add_parser("simulate", help="run one simulation")
    _add_topology_flags(simp, "ring", n=8, rows=3, cols=3, dim=3)
    simp.add_argument("--messages", type=int, default=20)
    simp.add_argument(
        "--workload", default="uniform", choices=["uniform", "hotspot"]
    )
    simp.add_argument("--seed", type=int, default=0)
    simp.add_argument(
        "--protocol", default="ssmfp", metavar="NAME",
        help="forwarding protocol to simulate (registry name)",
    )
    simp.add_argument(
        "--corrupt", default="none", choices=["none", "random", "worst"],
        help="initial routing-table corruption",
    )
    simp.add_argument(
        "--garbage", type=float, default=0.0,
        help="fraction of buffers pre-filled with invalid messages",
    )
    simp.add_argument(
        "--daemon", default="distributed",
        choices=["central", "distributed", "round-robin", "synchronous"],
    )
    simp.add_argument("--max-steps", type=int, default=500_000)
    simp.add_argument(
        "--watch", type=int, default=None, metavar="DEST",
        help="print DEST's component every 25 steps",
    )
    simp.add_argument(
        "--jsonl", default=None, metavar="PATH",
        help="write metrics and message lifecycles as a JSONL artifact",
    )
    simp.add_argument(
        "--timeline", type=int, default=None, metavar="UID",
        help="print the hop-by-hop causal timeline of one message "
             "(0 = every delivered message)",
    )
    return parser


def _topology_section(args) -> dict:
    """The ``{name, kwargs}`` topology section the topology flags spell."""
    kwargs = {key: getattr(args, key) for key in _TOPOLOGY_ARGS[args.topology]}
    return {"name": args.topology, "kwargs": kwargs}


def _make_network(args):
    from repro.network.topologies import topology_by_name

    return topology_by_name(args.topology, **_topology_section(args)["kwargs"])


def _write_artifact(path: str, rows, **header) -> None:
    """Write a ``repro.obs/v1`` artifact and say so on stderr."""
    from repro.obs.export import write_jsonl

    count = write_jsonl(path, rows, **header)
    print(f"artifact: {path} ({count} rows)", file=sys.stderr)


def _cmd_list(args) -> int:
    from repro.experiments.registry import EXPERIMENTS

    width = max(len(k) for k in EXPERIMENTS)
    for exp_id, (description, _) in EXPERIMENTS.items():
        print(f"{exp_id.ljust(width)}  {description}")
    return 0


def _cmd_experiment(args) -> int:
    from repro.experiments.registry import run_experiment

    try:
        print(run_experiment(args.id, args.jsonl))
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    if args.jsonl:
        print(f"artifact: {args.jsonl}", file=sys.stderr)
    return 0


def _cmd_simulate(args) -> int:
    from repro.app.workload import hotspot_per_source
    from repro.scenario import ScenarioSpec
    from repro.sim.runner import delivered_and_drained
    from repro.viz.ascii_art import render_component_state, render_network

    net = _make_network(args)
    watched = args.watch
    if watched is not None and not 0 <= watched < net.n:
        raise ConfigurationError(
            f"--watch {watched} outside topology (n={net.n})"
        )
    if args.workload == "uniform":
        workload_kwargs = {"count": args.messages}
    else:
        workload_kwargs = {
            "dest": 0,
            "per_source": hotspot_per_source(args.messages, net.n),
        }
    sim_section = {"daemon": {"name": args.daemon.replace("-", "_")}}
    if args.corrupt != "none":
        sim_section["routing"] = {"corruption": {"kind": args.corrupt}}
    if args.garbage:
        sim_section["garbage"] = {"fraction": args.garbage}
    registry = tracer = None
    if args.jsonl or args.timeline is not None:
        from repro.obs import MessageTracer, MetricsRegistry

        registry = MetricsRegistry()
        tracer = MessageTracer()
    sim = ScenarioSpec.from_dict(
        {
            "name": "simulate",
            "protocol": args.protocol,
            "seed": args.seed,
            "topology": _topology_section(args),
            "workload": {"name": args.workload, "kwargs": workload_kwargs},
            "sim": sim_section,
        }
    ).build_simulation(obs=registry, tracer=tracer)
    print(render_network(net))
    print()

    def watch(sim) -> None:
        if sim.sim.step_count % 25 == 0:
            print(f"-- step {sim.sim.step_count}")
            print(render_component_state(sim.forwarding, watched))

    sim.run(
        args.max_steps,
        halt=delivered_and_drained,
        raise_on_limit=False,
        before_step=None if watched is None else watch,
    )
    ledger = sim.ledger
    print(
        f"steps={sim.sim.step_count} rounds={sim.sim.round_count} "
        f"generated={ledger.generated_count} "
        f"delivered={ledger.valid_delivered_count} "
        f"invalid_delivered={ledger.invalid_delivery_count}"
    )
    if tracer is not None and args.timeline is not None:
        uids = tracer.uids() if args.timeline == 0 else [args.timeline]
        for uid in uids:
            print(tracer.format_timeline(uid))
    if registry is not None and args.jsonl:
        _write_artifact(
            args.jsonl, registry.rows() + tracer.to_rows(), name="simulate",
            meta={
                "topology": args.topology,
                "protocol": args.protocol,
                "seed": args.seed,
                "messages": args.messages,
            },
        )
    if not ledger.all_valid_delivered():
        print("WARNING: undelivered messages remain", file=sys.stderr)
        return 1
    print("all valid messages delivered exactly once")
    return 0


def _cmd_all(args) -> int:
    from repro.experiments.registry import run_all

    print(run_all(args.jsonl_dir))
    if args.jsonl_dir:
        print(f"artifacts: {args.jsonl_dir}", file=sys.stderr)
    return 0


def _cmd_obs(args) -> int:
    from repro.obs.export import diff_artifacts, summarize_artifact

    try:
        if args.obs_command == "summarize":
            print(summarize_artifact(args.artifact))
        else:
            print(diff_artifacts(args.a, args.b, tolerance=args.tolerance))
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


def _cmd_record(args) -> int:
    import pathlib

    from repro.scenario import ScenarioSpec, record_scenario

    try:
        record = record_scenario(
            ScenarioSpec.from_file(args.spec, target="simulate")
        )
    except ReproError as exc:
        print(f"error: spec rejected: {exc}", file=sys.stderr)
        return 2
    out = args.output or (str(pathlib.Path(args.spec).with_suffix("")) + ".record.json")
    pathlib.Path(out).write_text(record.to_json() + "\n")
    print(f"recorded: {out}")
    for key, value in sorted(record.outcome.items()):
        print(f"  {key}: {value}")
    return 0


def _cmd_verify(args) -> int:
    if args.record is None:
        return _cmd_verify_exhaustive(args)
    import json
    import pathlib

    from repro.scenario import RunRecord, verify_record

    try:
        record = RunRecord.from_json(pathlib.Path(args.record).read_text())
    except OSError as exc:
        print(f"error: cannot read record: {exc}", file=sys.stderr)
        return 2
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        print(
            f"error: {args.record} is not a run record: {exc}", file=sys.stderr
        )
        return 2
    try:
        problems = verify_record(record)
    except ReproError as exc:
        print(f"error: record's spec no longer runs: {exc}", file=sys.stderr)
        return 2
    if problems:
        for problem in problems:
            print(f"MISMATCH {problem}", file=sys.stderr)
        return 1
    print("verified: the run reproduces bit-identically")
    return 0


def _cmd_verify_exhaustive(args) -> int:
    """Exhaustive model checking from the command line.

    Exit codes follow the record/verify convention: 0 — the instance is
    exhaustively verified (and livelock-free when ``--liveness``), 1 — a
    violation or fair livelock was found, 2 — the search could not be
    completed (truncation, configuration error)."""
    import random as _random

    from repro.app.higher_layer import HigherLayer
    from repro.core.corruption import plant_invalid_messages
    from repro.core.ledger import DeliveryLedger
    from repro.core.registry import resolve
    from repro.routing.static import StaticRouting
    from repro.verify import LivenessChecker, ModelChecker

    proto_cls = resolve(args.protocol)
    check_fraction("--garbage", args.garbage)
    net = _make_network(args)
    if args.messages and net.n < 2:
        raise TopologyError(
            f"a message needs a destination other than its source: the "
            f"instance needs at least 2 processors, got {net.n}"
        )

    def make():
        proto = proto_cls(
            net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger()
        )
        rng = _random.Random(args.seed)
        for i in range(args.messages):
            src = i % net.n
            dest = rng.randrange(net.n - 1)
            if dest >= src:
                dest += 1
            proto.hl.submit(src, f"m{i}", dest)
        if args.garbage:
            plant_invalid_messages(
                proto, seed=args.seed, fill_fraction=args.garbage
            )
        return proto

    on_progress = None
    if args.log_every:
        def on_progress(row):
            print(
                f"  states={row['states']} frontier={row['frontier']} "
                f"rate={row['states_per_s']}/s dedup={row['dedup_hits']}",
                file=sys.stderr,
            )
    registry = None
    if args.jsonl:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()

    search = dict(
        max_states=args.max_states,
        max_selection_width=args.max_width,
        log_every=args.log_every,
        on_progress=on_progress,
        obs=registry,
    )
    result = ModelChecker(make, reduction=args.reduction, **search).run()
    print(
        f"safety: states={result.states} transitions={result.transitions} "
        f"terminal={result.terminal_states} violations={len(result.violations)}"
    )
    if result.reduction != "none":
        print(
            f"reduction: {result.reduction} "
            f"(group={result.group_size}, "
            f"skipped={result.skipped_selections}; {result.reduction_note})"
        )
    for violation in result.violations[:10]:
        print(f"VIOLATION {violation}", file=sys.stderr)

    live = None
    if args.liveness:
        live = LivenessChecker(make, **search).run()
        print(
            f"liveness: states={live.states} sccs={live.sccs} "
            f"livelocks={len(live.livelocks)}"
        )
        for lock in live.livelocks[:10]:
            print(
                f"LIVELOCK scc of {lock.states} states starving "
                f"{lock.starved_uids}",
                file=sys.stderr,
            )

    if registry is not None:
        _write_artifact(
            args.jsonl,
            registry.rows(),
            name="verify",
            meta={
                "topology": args.topology,
                "protocol": proto_cls.name,
                "reduction": args.reduction,
                "messages": args.messages,
                "seed": args.seed,
            },
        )

    if result.violations or (live is not None and live.livelocks):
        if live is not None and live.truncated:
            # An unsafe instance stops the liveness search at the first
            # violating selection; say so once, next to the verdict.
            print(f"liveness: search truncated: {live.note}", file=sys.stderr)
        return 1
    if result.truncated or (live is not None and live.truncated):
        note = result.note if result.truncated else live.note
        print(f"error: search truncated: {note}", file=sys.stderr)
        return 2
    print("verified: the instance is exhaustively safe")
    return 0


def _cmd_runtime(args) -> int:
    from repro.core.registry import runtime_window
    from repro.runtime import ClusterSpec, run_cluster

    netem = {
        "loss": args.loss,
        "dup": args.dup,
        "reorder": args.reorder,
    }
    if args.latency_ms:
        try:
            lo, hi = (float(x) for x in args.latency_ms.split(":"))
        except ValueError:
            raise ConfigurationError(
                f"--latency-ms wants LO:HI, got {args.latency_ms!r}"
            ) from None
        netem["latency"] = (lo / 1000.0, hi / 1000.0)
    spec = ClusterSpec(
        topology=_topology_section(args),
        messages=args.messages,
        seed=args.seed,
        transport=args.transport,
        workload=args.workload,
        netem=netem,
        deadline=args.deadline,
        port_base=args.port_base,
        window=args.window,
        max_batch=args.max_batch,
    )
    spec.window = runtime_window(args.protocol, spec.window)
    result = run_cluster(spec)
    print(result.summary())
    if args.jsonl:
        _write_artifact(
            args.jsonl,
            result.obs_rows(),
            name="runtime",
            meta={
                "topology": args.topology,
                "protocol": args.protocol,
                "transport": args.transport,
                "messages": args.messages,
                "seed": args.seed,
                "partial": result.partial,
            },
        )
    return 1 if result.partial else 0


def _cmd_scenario(args) -> int:
    from repro.scenario import (
        ScenarioSpec,
        load_scenario_file,
        run_campaign,
        run_one_scenario,
    )

    if args.scenario_command == "campaign":
        campaign = run_campaign(
            load_scenario_file(args.spec),
            target=args.target,
            smoke=args.smoke,
            workers=args.workers,
            artifact_dir=args.artifact_dir,
            jsonl_path=args.jsonl,
        )
        print(campaign.summary())
        if args.jsonl:
            print(f"artifact: {args.jsonl}", file=sys.stderr)
        return 0 if campaign.ok else 1

    spec = ScenarioSpec.from_file(args.spec, target=args.target)
    if args.smoke:
        spec = spec.smoked()
    result = run_one_scenario(spec)
    print(result.summary())
    if args.jsonl:
        count = result.write_artifact(args.jsonl)
        print(f"artifact: {args.jsonl} ({count} rows)", file=sys.stderr)
    return 0 if result.ok else 1


_COMMANDS = {
    "list": _cmd_list,
    "experiment": _cmd_experiment,
    "all": _cmd_all,
    "record": _cmd_record,
    "verify": _cmd_verify,
    "obs": _cmd_obs,
    "scenario": _cmd_scenario,
    "runtime": _cmd_runtime,
    "simulate": _cmd_simulate,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    This is the one boundary where a library error becomes a message: any
    :class:`~repro.errors.ReproError` a command lets through — a rejected
    spec, an impossible topology, a flag out of range — ends in one
    ``error:`` line and exit code 2, never a stack trace."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
