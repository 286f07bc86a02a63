import ast
import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import tilqr

MODULES = ["tilqr"] + sorted(
    info.name for info in pkgutil.iter_modules(tilqr.__path__, "tilqr."))


def test_all_lists_exactly_the_public_names():
    bound = {name for name, value in vars(tilqr).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(tilqr.__all__) == sorted(bound)
    assert len(tilqr.__all__) == len(set(tilqr.__all__))
    for name in tilqr.__all__:
        assert getattr(tilqr, name) is not None


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples_pass(name):
    result = doctest.testmod(importlib.import_module(name))
    assert result.failed == 0


def test_model_examples_are_collected():
    # the lqr_model example pins running_cost(..., 2.0) == 2.0
    assert doctest.testmod(tilqr.model).attempted >= 2


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_import_scan_sees_a_stale_name():
    assert _unused_imports("import math\nfrom os import path, sep\nx = sep\n") == [
        "math (line 1)", "path (line 2)"]


@pytest.mark.parametrize("path", sorted(
    p for p in Path(tilqr.__file__).parent.glob("*.py") if p.name != "__init__.py"),
    ids=lambda p: p.name)
def test_no_module_imports_a_name_it_never_uses(path):
    # __init__ imports to re-export; every other module imports to use
    assert _unused_imports(path.read_text(encoding="utf-8")) == []
