"""Smoke tests: every demo script runs to completion against the source tree,
``python -m mdimlab`` starts, and every README command line that needs no
input file exits 0."""

import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from mdimlab import __version__
from mdimlab.cli import main

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_present():
    assert len(DEMOS) >= 5


def _run(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_runs(script):
    result = _run(str(script))
    assert result.returncode == 0, result.stderr


def test_python_dash_m_runs_the_command_line():
    result = _run("-m", "mdimlab", "--version")
    assert (result.returncode, result.stdout) == (0, f"mdimlab {__version__}\n"), result.stderr


def _readme_commands() -> list[list[str]]:
    """The ``mdimlab …`` lines of README's fenced blocks, comments dropped."""
    commands, fenced = [], False
    for line in (ROOT / "README.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            fenced = not fenced
        elif fenced and line.startswith("mdimlab "):
            commands.append(shlex.split(line.partition("#")[0])[1:])
    return commands


README_COMMANDS = [argv for argv in _readme_commands() if "--input" not in argv]


def test_readme_commands_are_found():
    assert len(README_COMMANDS) >= 10


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[" ".join(a) for a in README_COMMANDS])
def test_readme_command_line_runs(argv, capsysbinary):
    assert main(argv) == 0, capsysbinary.readouterr().err.decode()
