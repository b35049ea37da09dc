"""Static checks over the package source, standing in for a linter.

Every import is from the standard library, numpy or lorahop itself (the
package has no other runtime dependency), every imported name is used,
every top-level function and class has a caller outside the tests, so does
every public method and property of those classes, and `cli.py` builds no
output document and parses no input document.
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
    """Code that only tests call belongs under tests/ (see tests/oracle.py).

    A definition counts as used when another module loads it as an attribute
    (`core.validate`) or imports it by name (`from .core import integers`), or
    when its own module loads it; a local variable of the same name elsewhere
    does not count.
    """
    trees = {path: ast.parse(path.read_text()) for path in MODULES + BENCH}
    by_others, by_self = {}, {}
    for path, tree in trees.items():
        by_self[path] = {node.id for node in ast.walk(tree)
                         if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        by_others[path] = {node.attr for node in ast.walk(tree)
                           if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
        by_others[path] |= {alias.name for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) for alias in node.names}
    unused = [f"{path.name}:{node.name}" for path in MODULES for node in trees[path].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in by_self[path]
              and not any(node.name in names for other, names in by_others.items()
                          if other != path)]
    assert not unused, f"defined in src/lorahop but used only by tests, if at all: {unused}"


def test_every_public_method_is_loaded_outside_the_tests():
    """A public method or property of a class in src/lorahop is loaded as an attribute
    (`window.snapshot`, `self.pdr`) somewhere in src/lorahop or perfbench; a name that
    starts with `_` is exempt."""
    trees = {path: ast.parse(path.read_text()) for path in MODULES + BENCH}
    loaded = {node.attr for tree in trees.values() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unused = [f"{path.name}:{cls.name}.{node.name}" for path in MODULES
              for cls in trees[path].body if isinstance(cls, ast.ClassDef)
              for node in cls.body if isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_") and node.name not in loaded]
    assert not unused, f"public in src/lorahop but loaded only by tests, if at all: {unused}"


def _json_calls(tree, name=None):
    """The calls of `json.<name>`, or of any `json` function, in `tree`."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute) and name in (None, node.func.attr)
            and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"]


def test_cli_builds_no_output_document():
    """The modules that own the output documents build them; cli.py's one `json.dumps`
    writes the run manifest, in `main`."""
    tree = ast.parse((SRC / "cli.py").read_text())
    main, = [node for node in tree.body if isinstance(node, ast.FunctionDef)
             and node.name == "main"]
    assert len(_json_calls(tree, "dumps")) == len(_json_calls(main, "dumps")) == 1


def test_cli_parses_no_input_document():
    """cli.py is argument parsing, dispatch, the manifest rule and exit codes: the modules
    that own the input formats parse them, so it imports no `csv` or `io` and calls no
    `json` function but the manifest's `json.dumps`."""
    tree = ast.parse((SRC / "cli.py").read_text())
    assert not {"csv", "io"} & {top for top, _ in _imports(tree)}
    assert [node.func.attr for node in _json_calls(tree)] == ["dumps"]
