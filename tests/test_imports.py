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


def test_no_module_imports_statistics():
    # importing statistics costs every CLI start-up about 2 ms; a mean is math.fsum(xs) / len(xs)
    users = [path.name for path in MODULES if "statistics" in imported_top_levels(ast.parse(path.read_text()))]
    assert users == []


def imported_package_modules(tree):
    """Names of freqroute modules a parsed module imports, relatively or by the package name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "freqroute" and len(parts) > 1:
                    yield parts[1]
        elif isinstance(node, ast.ImportFrom):
            parts = (node.module or "").split(".")
            if node.level == 0 and parts[0] != "freqroute":
                continue
            inner = parts if node.level else parts[1:]
            if inner and inner[0]:
                yield inner[0]
            else:  # `from . import x` or `from freqroute import x`
                yield from (alias.name for alias in node.names)


def test_oracle_is_independent_of_the_search_it_checks():
    # the oracle is the ground truth for astar and the harness; reading
    # anything of theirs would let a fault in them hide in both answers
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    assert set(imported_package_modules(tree)) & {"router", "harness", "cli"} == set()


def package_import_graph():
    """Each package module's name mapped to the package modules it imports, TYPE_CHECKING ones too."""
    names = {path.stem for path in MODULES}
    return {
        path.stem: set(imported_package_modules(ast.parse(path.read_text()))) & names
        for path in MODULES
    }


def test_metrics_imports_nothing_from_the_package():
    # metrics names the cost functions; every other layer reads it, so it reads none of them
    assert package_import_graph()["metrics"] == set()


def test_package_import_graph_has_no_cycle():
    graph = package_import_graph()
    done: set[str] = set()

    def visit(module, path):
        assert module not in path, f"import cycle: {' -> '.join((*path, module))}"
        if module not in done:
            for imported in sorted(graph[module]):
                visit(imported, (*path, module))
            done.add(module)

    for module in sorted(graph):
        visit(module, ())
