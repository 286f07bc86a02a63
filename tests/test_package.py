import ast
import dataclasses
import doctest
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import tilqr
import tilqr.cli
import tilqr.hjbgrid

MODULES = ["tilqr"] + sorted(
    info.name for info in pkgutil.iter_modules(tilqr.__path__, "tilqr."))
README = Path(tilqr.__file__).resolve().parents[2] / "README.md"
WORKLOADS = README.parent / "perfbench" / "workloads.py"


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


def test_model_spec_holds_exactly_what_the_grid_solver_reads():
    # a slot the solver never reads is a contract no caller can rely on
    source = Path(tilqr.hjbgrid.__file__).read_text(encoding="utf-8")
    read = {node.attr for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and ast.unparse(node.value) in ("model", "st.model")}
    assert "terminal_cost" in read  # the scan sees the solver's reads
    assert sorted(f.name for f in dataclasses.fields(tilqr.ModelSpec)) == sorted(read)


def test_readme_library_example_prints_its_comment(capsys):
    # the first python block under "## Library use", run as written; its
    # "# exact ..." line is the output it documents
    section = README.read_text(encoding="utf-8").split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    expected = [line[2:] for line in block.splitlines() if line.startswith("# exact ")]
    assert len(expected) == 1
    exec(compile(block, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == expected


def test_the_benchmark_reads_only_exported_names():
    # the benchmark's workloads change only with the benchmark itself, so
    # each name they read on the package must stay exported
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    read = {node.attr for node in attributes if ast.unparse(node.value) == "tilqr"}
    assert "solve_extended_hjb_picard" in read  # the scan sees the workloads' calls
    assert sorted(read - {"cli"} - set(tilqr.__all__)) == []
    assert {node.attr for node in attributes if ast.unparse(node.value) == "tilqr.cli"} == {"main"}
    assert callable(tilqr.cli.main)


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


def _thread_imports(source: str) -> list:
    """The ``threading``, ``queue`` and ``multiprocessing`` imports of
    ``source``, by line."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            modules = [node.module]
        else:
            continue
        found += [f"{module} (line {node.lineno})" for module in modules
                  if module.split(".")[0] in ("threading", "queue", "multiprocessing")]
    return found


def test_every_helper_thread_comes_from_concurrent_futures():
    # a concurrent.futures pool hands each job's error to a future its caller
    # waits, and joins its threads on leaving its with block; a hand-rolled
    # thread or queue would have to do both itself
    assert _thread_imports("import queue\nfrom threading import Thread\nimport os\n") == [
        "queue (line 1)", "threading (line 2)"]
    found = {path.name: _thread_imports(path.read_text(encoding="utf-8"))
             for path in sorted(Path(tilqr.__file__).parent.rglob("*.py"))}
    assert {name: lines for name, lines in found.items() if lines} == {}


def _names_read(source: str) -> set:
    """The names ``source`` loads, bare or as an attribute."""
    nodes = list(ast.walk(ast.parse(source)))
    return ({node.id for node in nodes
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in nodes if isinstance(node, ast.Attribute)})


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a public name that only tests call is surface to keep with no caller:
    # each must be read by a module of the package other than the one that
    # re-exports it, or by the benchmark's workloads
    assert _names_read("from m import a, b\nc = a\nd.e = 1\ndef f(): pass\n") == {
        "a", "d", "e"}
    readers = [path for path in sorted(Path(tilqr.__file__).parent.glob("*.py"))
               if path.name != "__init__.py"] + [WORKLOADS]
    read = set().union(*(_names_read(path.read_text(encoding="utf-8")) for path in readers))
    assert sorted(set(tilqr.__all__) - read) == []


# the private names one module may take from another: the CLI checks the
# Picard settings as the solver does, and check 12 pools the streaming route
PRIVATE_IMPORTS = {("cli", "_check_iteration_settings"), ("validation", "_CHUNK"),
                   ("validation", "_streaming_estimates")}


def _private_imports(source: str) -> set:
    """The ``_``-prefixed names ``source`` imports from a ``tilqr`` module,
    dunders such as ``__version__`` aside."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "tilqr")
            for alias in node.names
            if alias.name.startswith("_") and not alias.name.endswith("__")}


def test_no_module_imports_another_modules_private_names():
    # a private name is free to change with its module; one read from another
    # module is an entry nobody declared
    assert _private_imports("from .a import _b, c\nfrom tilqr.d import _e\n"
                            "from . import __version__\nfrom os import _exit\n") == {"_b", "_e"}
    found = {(path.stem, name) for path in Path(tilqr.__file__).parent.glob("*.py")
             for name in _private_imports(path.read_text(encoding="utf-8"))}
    assert sorted(found) == sorted(PRIVATE_IMPORTS)


def _enclosing(source: str, hit) -> list:
    """The innermost function around each node of ``source`` that ``hit``
    accepts (None at module level), in source order."""
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if hit(node):
            found.append(func)
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(ast.parse(source), None)
    return found


def _callers(source: str, name: str) -> list:
    return _enclosing(source, lambda node: isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == name)


def _readers(source: str, attr: str) -> list:
    return _enclosing(source, lambda node: isinstance(node, ast.Attribute)
                      and node.attr == attr)


def test_every_plot_is_drawn_by_the_table_emitter():
    # _emit_table draws the plot before it writes any file, so a plot that
    # cannot be drawn leaves none; a command that drew its own would not
    assert _callers("h()\ndef f():\n    g(h(1))\ndef k():\n    def m():\n        h()\n",
                    "h") == [None, "f", "m"]
    source = Path(tilqr.cli.__file__).read_text(encoding="utf-8")
    assert _callers(source, "render_svg") == ["_emit_table"]


def test_the_grid_solver_reads_volatility_and_drift_at_one_site_each():
    # the stability check evaluates the volatility once per time node, and
    # each slice step reads that table; the step hands its control's drift
    # to the field update instead of evaluating it again
    assert _readers("a.vol\ndef f():\n    b.c.vol(1)\n    d.vol2\n", "vol") == [None, "f"]
    source = Path(tilqr.hjbgrid.__file__).read_text(encoding="utf-8")
    assert _readers(source, "vol") == ["_check_cfl"]
    assert _readers(source, "drift") == ["_slice_control"]


def _sixths(source: str) -> list:
    return _enclosing(source, lambda node: isinstance(node, ast.BinOp)
                      and isinstance(node.op, ast.Div)
                      and getattr(node.right, "value", None) == 6.0)


def test_one_runge_kutta_combination_in_the_package():
    # the backward coefficient systems and the forward moment ODE step
    # through one stepper, so the RK4 weights are written once
    assert _sixths("x = h / 6.0\ndef f():\n    return (h / 6) * k + h / 3.0\n") == [None, "f"]
    found = [(path.stem, func) for path in sorted(Path(tilqr.__file__).parent.glob("*.py"))
             for func in _sixths(path.read_text(encoding="utf-8"))]
    assert found == [("_util", "rk4")]


def _forks(source: str) -> list:
    """The functions of ``source`` that call ``os.fork``, once per call."""
    return _enclosing(source, lambda node: isinstance(node, ast.Call)
                      and ast.unparse(node.func) == "os.fork")


def _child_branch_ends(source: str) -> list:
    """The last statement of each ``if <pid> == 0:`` branch of ``source``,
    ``<pid>`` a name assigned from ``os.fork()``, or of that branch's
    ``finally`` if it ends in a ``try``."""
    tree = ast.parse(source)
    pids = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
            and ast.unparse(node.value) == "os.fork()"
            for target in node.targets if isinstance(target, ast.Name)}
    ends = []
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and ast.unparse(node.test) in {f"{p} == 0" for p in pids}:
            last = node.body[-1]
            ends.append(ast.unparse(last.finalbody[-1] if isinstance(last, ast.Try)
                                    and last.finalbody else last))
    return ends


def test_one_forked_worker_that_ends_in_os_exit():
    # the grid solver forks its one worker per solve; a child that returned
    # would flush the caller's stdio buffers and run its atexit handlers, and
    # multiprocessing would bring its own start methods and helper threads
    example = ("import multiprocessing\ndef f():\n    pid = os.fork()\n    if pid == 0:\n"
               "        try:\n            g()\n        finally:\n            os._exit(0)\n")
    assert _thread_imports(example) == ["multiprocessing (line 1)"]
    assert _forks(example) == ["f"]
    assert _child_branch_ends(example) == ["os._exit(0)"]
    package = sorted(Path(tilqr.__file__).parent.glob("*.py"))
    forks = [(path.stem, func) for path in package
             for func in _forks(path.read_text(encoding="utf-8"))]
    assert forks == [("hjbgrid", "_indexed_steps")]
    ends = _child_branch_ends(Path(tilqr.hjbgrid.__file__).read_text(encoding="utf-8"))
    assert len(ends) == 1 and ends[0].startswith("os._exit(")
