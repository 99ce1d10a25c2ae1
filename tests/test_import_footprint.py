"""Each entry point imports only what it runs.

Every package facade resolves its public names on first access (PEP 562),
so importing a module loads only what that module imports.  The footprint
tests run each entry point in a fresh interpreter and read
``sys.modules`` there; the facade tests check the lazy names still behave
like the eager imports they replaced.
"""

from __future__ import annotations

import importlib
import json
import os
import pathlib
import pkgutil
import subprocess
import sys
import textwrap

import pytest

import repro

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

#: What the live runtime never needs: the state model and everything on it.
STATE_MODEL = (
    "repro.core", "repro.sim", "repro.verify", "repro.scenario",
    "repro.experiments", "repro.baselines", "repro.buffergraph",
    "repro.statemodel",
)


def repro_modules(code: str) -> dict:
    """Run ``code`` in a fresh interpreter; it may store lists of module
    names in the dict ``out``.  Returns ``out`` plus ``"loaded"``, the
    ``repro`` modules loaded when ``code`` ends."""
    epilogue = textwrap.dedent("""
        out["loaded"] = sorted(
            m for m in sys.modules if m == "repro" or m.startswith("repro.")
        )
        print(json.dumps(out))
    """)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\nout = {}\n"
         + textwrap.dedent(code) + epilogue],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def under(modules, packages):
    """The ``modules`` that are one of ``packages`` or inside one."""
    inside = tuple(p + "." for p in packages)
    return [m for m in modules if m in packages or m.startswith(inside)]


class TestFootprint:
    def test_import_repro_loads_no_subpackage(self):
        assert repro_modules("import repro")["loaded"] == ["repro"]

    def test_live_cluster_loads_no_state_model(self):
        out = repro_modules("""
            import repro.runtime.cluster as cluster
            result = cluster.run_cluster(cluster.ClusterSpec(
                topology={"name": "ring", "kwargs": {"n": 4}}, messages=20))
            assert not result.partial, result.summary()
        """)
        assert under(out["loaded"], STATE_MODEL) == []

    def test_a_simulate_only_spec_parse_loads_no_live_runtime(self):
        out = repro_modules(f"""
            from repro.scenario.spec import ScenarioSpec
            ScenarioSpec.from_file({str(SRC.parent / "specs" / "clean_grid.json")!r})
            out["asyncio"] = ["asyncio"] if "asyncio" in sys.modules else []
        """)
        assert out["asyncio"] == []
        live = tuple(
            f"repro.runtime.{name}"
            for name in ("cluster", "node", "transport", "netem")
        )
        assert under(out["loaded"], live) == []

    def test_help_loads_no_experiment_or_state_model(self):
        out = repro_modules("""
            import runpy
            sys.argv = ["repro", "--help"]
            try:
                runpy.run_module("repro", run_name="__main__")
            except SystemExit:
                pass
        """)
        unwanted = ("repro.core", "repro.sim", "repro.experiments")
        assert under(out["loaded"], unwanted) == []

    def test_list_imports_no_experiment_module(self):
        out = repro_modules("""
            from repro.cli import main
            main(["list"])
        """)
        assert under(out["loaded"], ("repro.experiments",)) == [
            "repro.experiments", "repro.experiments.registry",
        ]

    def test_a_simulation_run_imports_nothing_and_no_baseline(self):
        out = repro_modules("""
            from repro.app.workload import uniform_workload
            from repro.network.topologies import ring_network
            from repro.sim.runner import build_simulation, delivered_and_drained

            net = ring_network(6)
            sim = build_simulation(
                net, workload=uniform_workload(net.n, count=12, seed=1),
                routing_corruption={"kind": "random", "fraction": 1.0},
                garbage={"fraction": 0.3}, seed=7,
            )
            before = set(sys.modules)
            sim.run(200_000, halt=delivered_and_drained)
            assert sim.ledger.all_valid_delivered()
            out["new"] = sorted(set(sys.modules) - before)
        """)
        assert [m for m in out["new"] if m.startswith("repro")] == []
        assert under(out["loaded"], ("repro.baselines", "repro.buffergraph")) == []

    def test_a_model_checker_run_imports_nothing(self):
        out = repro_modules("""
            from repro.app.higher_layer import HigherLayer
            from repro.core.ledger import DeliveryLedger
            from repro.core.protocol import SSMFP
            from repro.network.topologies import line_network
            from repro.routing.static import StaticRouting
            from repro.verify.modelcheck import ModelChecker

            net = line_network(3)

            def make():
                proto = SSMFP(
                    net, StaticRouting(net), HigherLayer(net.n), DeliveryLedger()
                )
                proto.hl.submit(0, "m", 2)
                return proto

            checker = ModelChecker(make)
            before = set(sys.modules)
            result = checker.run()
            assert result.states > 0 and not result.violations
            out["new"] = sorted(set(sys.modules) - before)
        """)
        assert [m for m in out["new"] if m.startswith("repro")] == []


def packages():
    yield "repro"
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.ispkg:
            yield info.name


class TestFacades:
    @pytest.mark.parametrize("name", sorted(packages()))
    def test_every_public_name_resolves_and_is_listed(self, name):
        package = importlib.import_module(name)
        listed = dir(package)
        for attr in package.__all__:
            assert getattr(package, attr) is not None, attr
            assert attr in listed, attr

    @pytest.mark.parametrize("name", sorted(packages()))
    def test_an_unknown_name_is_an_attribute_error_naming_the_package(self, name):
        package = importlib.import_module(name)
        with pytest.raises(AttributeError, match=f"module '{name}' has no attribute"):
            package.no_such_name

    def test_star_import(self):
        namespace: dict = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["build_simulation"] is repro.sim.runner.build_simulation
