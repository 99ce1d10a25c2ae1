#!/usr/bin/env python3
"""Mutation testing on the standard library: which test kills which mutant.

    python tools/mutate.py [--gate] [MODULE ...]

Every ``MODULE`` is a path of :data:`SCOPE` (all of them when none is
given).  Its source is parsed with :mod:`ast`, and each site of five
operators becomes one mutant:

==========  ===============================================================
``cmp``     a comparison flips: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
            ``in``/``not in``, ``is``/``is not``
``int``     an integer operand of an arithmetic or comparison operator
            gains one, or loses one (two mutants)
``bool``    ``and`` <-> ``or``
``minmax``  ``min`` <-> ``max``
``del``     one statement of an ``if`` / ``else`` branch becomes ``pass``
==========  ===============================================================

A mutant's id is ``module:qualname:operator:ordinal``; the ordinal counts
that operator's sites inside ``qualname`` in source order, so an id stays
put when another function changes.  The mutant's text differs from the
module only inside the mutated node, spliced at the node's position.

Each mutant runs in a temporary copy of the tree, never in the working
tree: one ``pytest --junitxml`` run over the module's test subset fills
the mutant's row of the kill matrix.  A run that outlives its timeout
counts as killed, with status ``timeout``; its killers are the tests that
had failed and the one it was cut in.  Up to ``os.cpu_count()``
copies run at once.  The unmutated subset runs first in every copy at
once and must pass; three times its slowest wall, plus 2 s, is the
timeout.

The matrix is JSON lines on stdout, one block per module: a header
``{"module", "tests", "seconds"}`` (the subset's test ids and their
unmutated durations), then one row per mutant ``{"id", "line", "change",
"status", "killed_by"}``, where ``status`` is ``killed``, ``timeout`` or
``survived`` and ``killed_by`` lists the indices into ``tests`` of the
tests that failed, as ranges (``"0-3,7"``).  The committed matrices are
``tools/mutants/<module>.jsonl``; a survivor that no test can kill
because it changes no observable behaviour is listed with a one-line
reason in ``tools/mutants/equivalent.json``.

``--gate`` runs every subset with ``-x`` (a row then names the first
killer only) and exits 1 when a module kills fewer mutants than its
committed matrix.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import queue
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = ROOT / "tools" / "mutants"

_FAMILY_SINKS = tuple(
    f"ForwardingProtocol.{name}" for name in (
        "_mark_readers", "_on_buffer_write", "_on_queue_event",
        "_on_request_change", "_on_routing_change",
    )
)

#: module path -> (the qualnames it is narrowed to, or None for the whole
#: module; the tests that judge its mutants).
SCOPE: Dict[str, Tuple[Optional[Tuple[str, ...]], Tuple[str, ...]]] = {
    "src/repro/runtime/hop.py": (None, (
        "tests/test_runtime_node.py", "tests/test_hop_golden.py",
        "tests/test_hop_reference.py", "tests/test_messagepassing.py",
        "tests/test_runtime_clock.py",
    )),
    "src/repro/runtime/conformance.py": (None, (
        "tests/test_runtime_conformance.py",
        "tests/test_conformance_differential.py",
        "tests/test_messagepassing.py",
    )),
    "src/repro/core/rules.py": (None, (
        "tests/test_core_rules.py", "tests/test_reference_rules.py",
    )),
    "src/repro/core/rules2.py": (None, (
        "tests/test_protocol2_rules.py", "tests/test_reference_rules.py",
    )),
    "src/repro/verify/liveness.py": (None, ("tests/test_liveness.py",)),
    "src/repro/core/family.py": (_FAMILY_SINKS, (
        "tests/test_core_family_sinks.py", "tests/test_engine_equivalence.py",
        "tests/test_verify_reduction.py::TestPartialOrderReduction::test_pinned_counts_on_the_small_x5_instances",
    )),
    "src/repro/statemodel/components.py": (None, (
        "tests/test_core_family_sinks.py", "tests/test_sparse_state.py",
        "tests/test_engine_pins.py", "tests/test_statemodel_components.py",
    )),
    "src/repro/core/ledger.py": (None, ("tests/test_core_ledger.py",)),
    "src/repro/verify/modelcheck.py": (("expand_state",), (
        "tests/test_modelcheck.py", "tests/test_verify_reduction.py",
        "tests/test_snapshot_state.py::TestEngineEquivalence::test_modelcheck_engines_agree",
    )),
}


@dataclass(frozen=True)
class Mutant:
    id: str
    line: int
    change: str
    text: str


_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.In: ast.NotIn,
    ast.NotIn: ast.In, ast.Is: ast.IsNot, ast.IsNot: ast.Is,
}


class _Sites(ast.NodeVisitor):
    """Collects ``(qualname, operator, node, replacement text)`` in
    source order."""

    def __init__(self, lines: List[bytes]) -> None:
        self.lines = lines
        self.scope: List[str] = []
        self.sites: List[Tuple[str, str, ast.AST, str]] = []

    def _add(self, operator: str, node: ast.AST, text: str) -> None:
        self.sites.append((".".join(self.scope) or "<module>", operator, node, text))

    def _named(self, node) -> None:
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _named

    def visit_JoinedStr(self, node) -> None:
        pass  # positions inside an f-string are not the source's before 3.12

    def _operands(self, *operands: ast.AST) -> None:
        for node in operands:
            if isinstance(node, ast.UnaryOp):
                node = node.operand
            if isinstance(node, ast.Constant) and type(node.value) is int:
                for value in (node.value + 1, node.value - 1):
                    self._add("int", node, f"({value})" if value < 0 else str(value))

    def visit_Compare(self, node: ast.Compare) -> None:
        for i, op in enumerate(node.ops):
            ops = list(node.ops)
            ops[i] = _FLIP[type(op)]()
            flipped = ast.Compare(node.left, ops, node.comparators)
            self._add("cmp", node, f"({ast.unparse(flipped)})")
        self._operands(node.left, *node.comparators)
        self.generic_visit(node)

    def visit_BinOp(self, node: ast.BinOp) -> None:
        self._operands(node.left, node.right)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._operands(node.value)
        self.generic_visit(node)

    def visit_BoolOp(self, node: ast.BoolOp) -> None:
        other = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        self._add("bool", node, f"({ast.unparse(ast.BoolOp(other, node.values))})")
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if isinstance(node.func, ast.Name) and node.func.id in ("min", "max"):
            self._add("minmax", node.func, "max" if node.func.id == "min" else "min")
        self.generic_visit(node)

    def visit_If(self, node: ast.If) -> None:
        self.visit(node.test)
        for branch in (node.body, node.orelse):
            for stmt in branch:
                # An ``elif`` is an If in ``orelse``; its own statements
                # are sites, the keyword is not.
                elif_ = self.lines[stmt.lineno - 1][stmt.col_offset:].startswith(b"elif")
                if not elif_ and not isinstance(stmt, ast.Pass):
                    self._add("del", stmt, "pass")
                self.visit(stmt)


def _splice(lines: List[bytes], node: ast.AST, text: str) -> str:
    """The source with ``node``'s span replaced by ``text`` (``ast``
    offsets are UTF-8 byte columns)."""
    first, last = node.lineno - 1, node.end_lineno - 1
    head = lines[first][: node.col_offset]
    tail = lines[last][node.end_col_offset:]
    spliced = lines[:first] + [head + text.encode() + tail] + lines[last + 1:]
    return b"".join(spliced).decode()


def mutants(
    path: Path, module: str, qualnames: Optional[Sequence[str]] = None
) -> List[Mutant]:
    """Every mutant of the module at ``path``, in source order, narrowed
    to ``qualnames`` (and what they contain) when given."""
    source = path.read_bytes()
    lines = source.splitlines(keepends=True)
    sites = _Sites(lines)
    sites.visit(ast.parse(source))
    ordinals: Dict[Tuple[str, str], int] = {}
    found = []
    for qualname, operator, node, text in sites.sites:
        if qualnames is not None and not any(
            qualname == q or qualname.startswith(q + ".") for q in qualnames
        ):
            continue
        ordinal = ordinals.get((qualname, operator), 0)
        ordinals[qualname, operator] = ordinal + 1
        old = b"".join(lines[node.lineno - 1: node.end_lineno]).decode().strip()
        mutated = _splice(lines, node, text)
        new = mutated.splitlines()[node.lineno - 1].strip()
        compile(mutated, str(path), "exec")
        found.append(Mutant(
            f"{module}:{qualname}:{operator}:{ordinal}", node.lineno,
            f"{old.splitlines()[0]}  ->  {new}", mutated,
        ))
    return found


def _module_name(path: str) -> str:
    parts = Path(path).with_suffix("").parts
    return ".".join(parts[1:] if parts[0] == "src" else parts)


def _ranges(indices: List[int]) -> str:
    spans: List[List[int]] = []
    for i in sorted(indices):
        if spans and spans[-1][1] == i - 1:
            spans[-1][1] = i
        else:
            spans.append([i, i])
    return ",".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def _test_id(root: Path, case: ET.Element) -> str:
    """``tests/test_x.py::Class::name`` from a junit testcase."""
    parts = case.get("classname", "").split(".")
    for i in range(1, len(parts) + 1):
        if (root / Path(*parts[:i])).with_suffix(".py").is_file():
            return "::".join(["/".join(parts[:i]) + ".py", *parts[i:], case.get("name", "")])
    return "::".join(filter(None, [case.get("classname"), case.get("name")]))


_VERDICT = re.compile(r"(\S+::.*?) (PASSED|FAILED|ERROR|SKIPPED|XFAIL|XPASS)\b")


def _unfinished(log: str) -> List[Tuple[str, float, bool]]:
    """The tests of a verbose log cut mid-run, the one it was cut in
    (its line names it but holds no verdict yet) counted as failed."""
    lines = log.splitlines()
    cases = [(v[1], 0.0, v[2] in ("FAILED", "ERROR"))
             for v in map(_VERDICT.match, lines) if v]
    if lines and "::" in lines[-1] and not _VERDICT.match(lines[-1]):
        cases.append((lines[-1].strip(), 0.0, True))
    return cases


class _Copy:
    """A private copy of the tree in which one mutant runs at a time."""

    def __init__(self, root: Path, module: str) -> None:
        self._tmp = tempfile.TemporaryDirectory(prefix="mutate-")
        self.root = Path(self._tmp.name) / "tree"
        shutil.copytree(root, self.root, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", "*.pyc",
        ))
        self.module = self.root / module
        self.original = self.module.read_text()

    def run(
        self, tests: Sequence[str], text: Optional[str], gate: bool,
        timeout: Optional[float],
    ) -> Tuple[List[Tuple[str, float, bool]], float, bool]:
        """``((test id, seconds, failed) per test, wall seconds, timed
        out)`` for one pytest run with ``text`` as the module.  A run cut
        at ``timeout`` reports, from its verbose log, the tests that had
        failed and the one that was running."""
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"),
                   PYTHONUNBUFFERED="1")
        if text is not None:
            # The unmutated run cached every module's bytecode; a mutant
            # must compile from its text and cache nothing.
            for pyc in (self.module.parent / "__pycache__").glob(
                f"{self.module.stem}.*.pyc"
            ):
                pyc.unlink()
            env["PYTHONDONTWRITEBYTECODE"] = "1"
        self.module.write_text(self.original if text is None else text)
        report = self.root / "junit.xml"
        report.unlink(missing_ok=True)
        log = self.root / "pytest.log"
        # -vv outweighs a -q in the tree's own addopts: one line per test.
        cmd = [sys.executable, "-m", "pytest", "-vv", "-p", "no:cacheprovider",
               f"--junitxml={report}", *(["-x"] if gate else []), *tests]
        start = time.monotonic()
        with open(log, "w") as sink:
            child = subprocess.Popen(
                cmd, cwd=self.root, env=env, stdout=sink,
                stderr=subprocess.STDOUT, start_new_session=True,
            )
            try:
                child.wait(timeout)
            except subprocess.TimeoutExpired:
                os.killpg(child.pid, signal.SIGKILL)
                child.wait()
                return _unfinished(log.read_text()), time.monotonic() - start, True
            finally:
                self.module.write_text(self.original)
        wall = time.monotonic() - start
        if not report.is_file():
            return [("<no report>", 0.0, True)], wall, False
        cases = [
            (_test_id(self.root, case), float(case.get("time", 0.0)),
             any(c.tag in ("failure", "error") for c in case))
            for case in ET.parse(report).getroot().iter("testcase")
        ]
        if child.returncode != 0 and not any(failed for _, _, failed in cases):
            cases.append(("<exit %d>" % child.returncode, 0.0, True))
        return cases, wall, False

    def close(self) -> None:
        self._tmp.cleanup()


def run_module(
    root: Path, module: str, qualnames: Optional[Sequence[str]],
    tests: Sequence[str], gate: bool = False,
) -> List[dict]:
    """The kill matrix of ``module`` (a path under ``root``): its header
    row, then one row per mutant."""
    found = mutants(root / module, _module_name(module), qualnames)
    workers = max(1, min(os.cpu_count() or 1, len(found)))
    copies: "queue.Queue[_Copy]" = queue.Queue()
    for _ in range(workers):
        copies.put(_Copy(root, module))
    try:
        # The unmutated subset runs once in every copy at once, under the
        # load the mutants will see; its slowest wall sets the timeout.
        with ThreadPoolExecutor(workers) as pool:
            baselines = list(pool.map(
                lambda copy: copy.run(tests, None, gate=False, timeout=None),
                list(copies.queue),
            ))
        cases = baselines[0][0]
        failing = [test for test, _, failed in cases if failed]
        if failing:
            raise SystemExit(f"{module}: the unmutated subset fails: {failing[:5]}")
        index = {test: i for i, (test, _, _) in enumerate(cases)}
        timeout = 3 * max(wall for _, wall, _ in baselines) + 2

        def one(mutant: Mutant) -> dict:
            copy = copies.get()
            try:
                result, _, timed_out = copy.run(tests, mutant.text, gate, timeout)
            finally:
                copies.put(copy)
            killers = [index.setdefault(test, len(index))
                       for test, _, failed in result if failed]
            status = "timeout" if timed_out else "killed" if killers else "survived"
            print(f"{status:8} {mutant.id}", file=sys.stderr, flush=True)
            return {"id": mutant.id, "line": mutant.line, "change": mutant.change,
                    "status": status, "killed_by": _ranges(killers)}

        with ThreadPoolExecutor(workers) as pool:
            rows = list(pool.map(one, found))
    finally:
        while not copies.empty():
            copies.get().close()
    header = {"module": _module_name(module), "tests": list(index),
              "seconds": [round(seconds, 3) for _, seconds, _ in cases]
              + [0.0] * (len(index) - len(cases))}
    return [header, *rows]


def killed(rows: Sequence[dict]) -> int:
    return sum(1 for row in rows if row.get("status") in ("killed", "timeout"))


def _committed(module: str) -> List[dict]:
    path = MUTANTS / f"{_module_name(module)}.jsonl"
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE",
                        help="a path of the scope table: " + ", ".join(SCOPE))
    parser.add_argument("--gate", action="store_true",
                        help="stop each run at its first failure; exit 1 when "
                             "a module kills fewer mutants than committed")
    args = parser.parse_args(argv)
    for module in args.modules:
        if module not in SCOPE:
            parser.error(f"{module} is not in the scope table")
    equivalent = json.loads((MUTANTS / "equivalent.json").read_text())
    status = 0
    for module in args.modules or SCOPE:
        qualnames, tests = SCOPE[module]
        rows = run_module(ROOT, module, qualnames, tests, args.gate)
        for row in rows:
            print(json.dumps(row))
        count, floor = killed(rows), killed(_committed(module))
        unexplained = [row["id"] for row in rows[1:]
                       if row["status"] == "survived" and row["id"] not in equivalent]
        print(f"{module}: {count}/{len(rows) - 1} killed (committed {floor}); "
              f"{len(unexplained)} survivor(s) not in equivalent.json",
              file=sys.stderr)
        for mutant_id in unexplained:
            print(f"  survived: {mutant_id}", file=sys.stderr)
        if args.gate and count < floor:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
