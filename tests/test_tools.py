"""Tests for the repository tooling."""

import pathlib
import subprocess
import sys


class TestApiIndexGenerator:
    def test_generator_runs_and_output_committed(self):
        # Rendered in a child process (the generator imports every module)
        # and compared, never written: a stale docs/API.md fails here.
        root = pathlib.Path(__file__).parent.parent
        render = (
            "import sys; sys.path.insert(0, sys.argv[1]); import gen_api_index; "
            "sys.stdout.write(gen_api_index.render())"
        )
        result = subprocess.run(
            [sys.executable, "-c", render, str(root / "tools")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        api = (root / "docs" / "API.md").read_text()
        assert result.stdout == api, (
            "docs/API.md is stale: run python tools/gen_api_index.py"
        )
        # Spot-check headline symbols are indexed.
        for needle in (
            "## `repro.core.protocol`",
            "`SSMFP` (class)",
            "## `repro.verify.modelcheck`",
            "`ModelChecker` (class)",
        ):
            assert needle in api


def _mutate_tool():
    tools = pathlib.Path(__file__).parent.parent / "tools"
    sys.path.insert(0, str(tools))
    try:
        import mutate
    finally:
        sys.path.remove(str(tools))
    return mutate


_CALC = '''\
def clamp(x, lo, hi):
    if x < lo:
        return lo
    return min(x, hi) if x > 0 and hi else x


def spin(n):
    i = 0
    while i < n:
        i += 1
    return i
'''


class TestMutationTool:
    def test_each_operator_yields_its_mutant(self, tmp_path):
        import ast

        mutate = _mutate_tool()
        module = tmp_path / "calc.py"
        module.write_text(_CALC)
        got = {m.id: ast.unparse(ast.parse(m.text))
               for m in mutate.mutants(module, "calc")}

        def expect(old, new):
            return ast.unparse(ast.parse(_CALC.replace(old, new, 1)))

        assert got["calc:clamp:cmp:0"] == expect("x < lo", "x <= lo")
        assert got["calc:clamp:del:0"] == expect("return lo", "pass")
        assert got["calc:clamp:minmax:0"] == expect("min(x, hi)", "max(x, hi)")
        assert got["calc:clamp:bool:0"] == expect("x > 0 and hi", "(x > 0 or hi)")
        assert got["calc:clamp:int:0"] == expect("x > 0", "x > 1")
        assert got["calc:clamp:int:1"] == expect("x > 0", "x > -1")
        assert got["calc:spin:int:0"] == expect("i += 1", "i += 2")
        assert got["calc:spin:int:1"] == expect("i += 1", "i += 0")
        # ``i = 0`` is no operand, and a loop body is no branch.
        assert sorted(i for i in got if i.startswith("calc:spin:")) == [
            "calc:spin:cmp:0", "calc:spin:int:0", "calc:spin:int:1",
        ]

    def test_ids_hold_when_a_function_above_gains_a_line(self, tmp_path):
        mutate = _mutate_tool()
        module = tmp_path / "calc.py"
        module.write_text(_CALC)
        before = [(m.id, m.change, m.line) for m in mutate.mutants(module, "calc", ["spin"])]
        module.write_text(_CALC.replace("    if x < lo:", "    x = x if x == x else 0\n    if x < lo:"))
        after = [(m.id, m.change, m.line - 1) for m in mutate.mutants(module, "calc", ["spin"])]
        assert before == after

    def test_a_run_fills_the_matrix_in_a_copy_and_a_hang_is_a_kill(self, tmp_path):
        mutate = _mutate_tool()
        (tmp_path / "src").mkdir()
        (tmp_path / "src" / "calc.py").write_text(_CALC)
        (tmp_path / "tests").mkdir()
        (tmp_path / "tests" / "test_calc.py").write_text(
            "from calc import spin\n\n"
            "def test_three():\n    assert spin(3) == 3\n\n"
            "def test_at_least_one():\n    assert spin(1) >= 1\n"
        )
        git = ["git", "-c", "user.name=t", "-c", "user.email=t@t", "-C", str(tmp_path)]
        for args in (["init", "-q"], ["add", "."], ["commit", "-qm", "calc"]):
            subprocess.run(git + args, check=True, capture_output=True)

        header, *rows = mutate.run_module(
            tmp_path, "src/calc.py", ["spin"], ["tests/test_calc.py"]
        )

        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True,
                                text=True, check=True).stdout
        assert status == ""
        assert header["tests"] == ["tests/test_calc.py::test_three",
                                   "tests/test_calc.py::test_at_least_one"]
        assert [(row["id"], row["status"], row["killed_by"]) for row in rows] == [
            ("calc:spin:cmp:0", "killed", "0"),    # i <= n: 4, and 2 >= 1
            ("calc:spin:int:0", "killed", "0"),    # i += 2
            ("calc:spin:int:1", "timeout", "0"),   # i += 0: test_three hangs
        ]
        assert mutate.killed(rows) == 3
