"""Every narrative demo, and every example in the README, runs to completion
against the current package."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_exist():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.name)
def test_demo_runs(demo):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, str(demo)],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip()


README = (ROOT / "README.md").read_text(encoding="utf-8")


def _readme_block(heading: str, language: str) -> str:
    """The first fenced block of `language` under the README's `heading`."""
    section = README.split(f"\n## {heading}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def _run_python(*args, cwd=ROOT):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, cwd=cwd, env=env, timeout=120
    )


def test_readme_quick_start_runs():
    result = _run_python("-c", _readme_block("Quick start (library)", "python"))
    assert result.returncode == 0, result.stderr
    assert float(result.stdout) < 0  # the comment's claim: grids win


def test_readme_command_lines_run(tmp_path):
    lines = _readme_block("Command line", "sh").splitlines()
    commands = [shlex.split(line, comments=True) for line in lines]
    assert [c[:2] for c in commands] == [
        ["sensegrid", "form-grids"], ["sensegrid", "run"], ["sensegrid", "compare"],
        ["sensegrid", "compare"],
    ]
    for command in commands:
        result = _run_python("-m", *command, cwd=tmp_path)  # --out lands in tmp_path
        assert result.returncode == 0, (command, result.stderr)
    assert (tmp_path / "report.json").stat().st_size > 0
