"""The package runs on the standard library alone."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "mdimlab").glob("*.py"))


def _absolute_imports(path):
    """Top-level names of the modules that ``path`` imports absolutely."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_modules_import_only_the_standard_library(path):
    outside = set(_absolute_imports(path)) - sys.stdlib_module_names
    assert not outside


def test_pyproject_declares_no_runtime_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    project = text.partition("\n[project]\n")[2].partition("\n[")[0].splitlines()
    assert [line for line in project if line.startswith("dependencies")] == ["dependencies = []"]
