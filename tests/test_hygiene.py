"""Static checks over the package source, standing in for a linter.

Every import is from the standard library, numpy or lorahop itself (the
package has no other runtime dependency), every imported name is used, and
every top-level function and class has a caller outside the tests.
"""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "lorahop"
MODULES = sorted(SRC.glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))
ALLOWED_TOP_LEVEL = set(sys.stdlib_module_names) | {"numpy", "lorahop"}


def _imports(tree):
    """(top-level module or None for a relative import, bound name) per imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.split(".")[0], alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            top = node.module.split(".")[0] if node.level == 0 else None
            for alias in node.names:
                yield top, alias.asname or alias.name


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_lorahop(path):
    tree = ast.parse(path.read_text())
    foreign = sorted({top for top, _ in _imports(tree)
                      if top is not None and top not in ALLOWED_TOP_LEVEL})
    assert not foreign, f"{path.name} imports {foreign}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted({name for _, name in _imports(tree)} - used)
    assert not unused, f"{path.name} imports unused {unused}"


def test_every_top_level_definition_is_used_outside_the_tests():
    """Code that only tests call belongs under tests/ (see tests/oracle.py)."""
    loaded = set()
    for path in MODULES + BENCH:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id if isinstance(node, ast.Name) else node.attr)
    unused = [f"{path.name}:{node.name}" for path in MODULES
              for node in ast.parse(path.read_text()).body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in loaded]
    assert not unused, f"defined in src/lorahop but used only by tests, if at all: {unused}"
