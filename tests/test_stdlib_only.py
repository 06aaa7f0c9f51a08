"""The package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "spheredim"
SOURCES = sorted(PACKAGE.glob("*.py"))


def imported_top_level_modules(tree: ast.AST) -> set[str]:
    """First components of every absolute import, at any depth of the tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_every_module_is_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "concepts.py", "spheres.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    foreign = imported_top_level_modules(tree) - set(sys.stdlib_module_names) - {"spheredim"}
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
