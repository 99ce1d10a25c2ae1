"""Smoke test of the harness: ``python -m pytest bench -q`` (under 30 s).

Runs ``python -m bench --smoke`` once — sizes / 20, one untraced and one
traced rep per workload, same code path and output checks as a full run —
and validates what it emitted against the metric table and
``BENCHMARK.json``.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, SCHEMA
from bench.compare import compare
from bench.metrics import (
    CONTRACT_END_TO_END,
    PER_LAYER,
    end_to_end_for,
    per_layer_for,
)
from bench.workloads import WORKLOADS


def _bench(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "bench", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench") / "smoke.json"
    proc = _bench("--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert "loopback only" in proc.stdout
    return json.loads(out.read_text(encoding="utf-8"))


def test_all_six_workloads_pass_their_checks(smoke):
    assert smoke["schema"] == SCHEMA
    assert list(smoke["workloads"]) == list(WORKLOADS)
    for name, record in smoke["workloads"].items():
        assert record["ok"] and record["failed"] == 0, (name, record["problems"])
        assert record["median"]["failed_share"] == 0
        assert record["exact_identical"], name


def test_every_named_metric_is_present_with_a_unit(smoke):
    for name, record in smoke["workloads"].items():
        substrate = WORKLOADS[name].substrate
        for metric in end_to_end_for(substrate):
            assert metric.unit
            assert metric.name in record["median"], (name, metric.name)
        layers = record["traced"]["layers"]
        for layer in per_layer_for(substrate):
            assert layer.unit
            assert layer.name in layers, (name, layer.name)
            if layer.exact:
                assert layers[layer.name] == record["exact"][layer.name]
        assert record["traced"]["layers"]["bench.trace_overhead_ratio"] > 0


def test_self_times_account_for_the_traced_wall(smoke):
    for name, record in smoke["workloads"].items():
        if WORKLOADS[name].substrate == "rt":
            continue  # the remainder is reported as runtime.node.self_s_est
        ratio = record["traced"]["layers"]["bench.trace_self_sum_ratio"]
        assert 0.9 <= ratio <= 1.1, (name, ratio)


def test_benchmark_json_lists_exactly_the_emitted_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert doc["command"] == ["python3", "-m", "bench"]
    assert doc["paths"] == ["bench"]
    assert doc["workloads"] == [
        {"name": w.name, "why": w.why} for w in WORKLOADS.values()
    ]
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in CONTRACT_END_TO_END
    ]
    assert doc["per_layer"] == [
        {"name": p.name, "unit": p.unit, "better": p.better} for p in PER_LAYER
    ]
    for trace, listed in (("0", doc["end_to_end"]), ("1", doc["per_layer"])):
        proc = _bench(
            "--workload", "sim-dense", "--smoke", "--seed", "11",
            "--seconds", "1", "--trace", trace,
        )
        assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
        assert result["correct"] is True and result["failed"] == 0
        assert {
            name: value["unit"] for name, value in result["metrics"].items()
        } == {m["name"]: m["unit"] for m in listed}
        if trace == "0":
            assert all(v["value"] > 0 for v in result["metrics"].values())


def test_compare_flags_a_regression_and_an_exact_mismatch(smoke):
    table, passed = compare(smoke, smoke)
    assert passed, table

    slower = copy.deepcopy(smoke)
    record = slower["workloads"]["sim-dense"]
    record["median"]["wall_s"] *= 1.5
    record["quartiles"]["wall_s"] = [q * 1.5 for q in record["quartiles"]["wall_s"]]
    for rep in record["reps"]:
        rep["metrics"]["wall_s"] *= 1.5
    table, passed = compare(smoke, slower)
    assert not passed and "REGRESSION" in table

    recounted = copy.deepcopy(smoke)
    recounted["workloads"]["sim-dense"]["exact"]["statemodel.scheduler.steps"] += 1
    table, passed = compare(smoke, recounted)
    assert not passed and "exact counts DIFFER" in table


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(
        os.path.join(ROOT, "bench"), tmp_path / "bench",
        ignore=shutil.ignore_patterns("__pycache__", "out"),
    )
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _bench(
        "--workload", "sim-dense", "--seed", "1", "--seconds", "1", "--trace", "0",
        cwd=str(tmp_path),
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
