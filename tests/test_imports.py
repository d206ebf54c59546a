"""The runtime stays stdlib-only: every import under src/freqroute names a standard module."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "freqroute"
MODULES = sorted(PACKAGE.rglob("*.py"))


def imported_top_levels(tree):
    """Top-level names of every absolute import in a parsed module; relative ones stay in the package."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_package_modules_found():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_only(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    outside = sorted(set(imported_top_levels(tree)) - sys.stdlib_module_names)
    assert outside == []
