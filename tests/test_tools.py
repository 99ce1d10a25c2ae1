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
