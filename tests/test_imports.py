"""Every name a colorhom module imports is used in that module, every
private helper it defines is used somewhere in the package, and every
name the package exports exists.

Checks over the source (with ``ast``) and the imported package:

* a name bound by ``import`` or ``from ... import`` must be read somewhere
  in the module, or listed in its ``__all__`` (the package re-exports).  It
  catches the stale imports that deleting a helper leaves behind;
* a module-level ``_private`` function must be read, by name or as an
  attribute, somewhere in the package outside its own body.  It keeps a
  deleted helper from surviving, or coming back, as dead code;
* every name in ``colorhom.__all__`` is an attribute of the package and
  is listed once, so a deletion cannot leave a stale export behind;
* every span name the benchmark reads a per-layer metric from
  (``layer.function`` or ``layer.Class.method``) must name a function of
  the package, so that a rename cannot silently zero a metric.
"""

import ast
import importlib
import pathlib
import types

import pytest

import colorhom

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "colorhom"


def unused_imports(source):
    """(name, line) of each imported name the module never reads."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [((a.asname or a.name).split(".")[0], node.lineno)
                         for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [(a.asname or a.name, node.lineno) for a in node.names]
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [(name, line) for name, line in imported if name not in used]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_checker_finds_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import warnings\n"
              "from .glinalg import _basis, _sub\n"
              "__all__ = ['_sub']\n"
              "warnings.warn('x')\n")
    assert unused_imports(source) == [("os", 2), ("_basis", 4)]


def test_public_surface_resolves():
    names = colorhom.__all__
    assert [n for n in names if not hasattr(colorhom, n)] == []
    assert sorted({n for n in names if names.count(n) > 1}) == []


def unreferenced_private_functions(sources):
    """(module, name, line) of each module-level ``_private`` function that
    no module in ``sources`` ({module: source}) reads outside its own body."""
    defined, reads = [], []
    for mod, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner = top.name
                if owner.startswith("_"):
                    defined.append((mod, owner, top.lineno))
            for n in ast.walk(top):
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                    reads.append((n.id, mod, owner))
                elif isinstance(n, ast.Attribute):
                    reads.append((n.attr, mod, owner))
    return [(mod, name, line) for mod, name, line in defined
            if not any(r == name and (m, o) != (mod, name) for r, m, o in reads)]


def test_every_private_function_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


def test_checker_finds_an_unreferenced_private_function():
    sources = {
        "a.py": ("def _local():\n"
                 "    return 1\n"
                 "def _remote():\n"
                 "    return 2\n"
                 "def _recursive(n):\n"
                 "    return _recursive(n - 1) if n else 0\n"
                 "def public():\n"
                 "    return _local()\n"),
        "b.py": ("from . import a\n"
                 "def _dead():\n"
                 "    return a._remote()\n"),
    }
    assert unreferenced_private_functions(sources) == [
        ("a.py", "_recursive", 5), ("b.py", "_dead", 2)]


def metric_span_names(run_source, tracing_source):
    """The span names ``perfbench/run.py`` reads in ``span_metrics`` (the
    first argument of each ``get``, the ``basis`` tuple, the arguments of
    ``nested_calls``) and the methods ``perfbench/tracing.py`` wraps."""
    names = set()
    for top in ast.parse(run_source).body:
        if not (isinstance(top, ast.FunctionDef) and top.name == "span_metrics"):
            continue
        for n in ast.walk(top):
            if isinstance(n, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id == "basis" for t in n.targets):
                names |= set(ast.literal_eval(n.value))
            elif isinstance(n, ast.Call):
                func = getattr(n.func, "id", getattr(n.func, "attr", None))
                args = n.args[:1] if func == "get" else (
                    n.args[1:] if func == "nested_calls" else [])
                names |= {a.value for a in args if isinstance(a, ast.Constant)}
    for top in ast.parse(tracing_source).body:
        if isinstance(top, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "SPAN_METHODS" for t in top.targets):
            for layer, classes in ast.literal_eval(top.value).items():
                names |= {f"{layer}.{cls}.{meth}"
                          for cls, meths in classes.items() for meth in meths}
    return names


def unresolved(names):
    """The names that are not ``layer.function`` or ``layer.Class.method``
    of a function in ``colorhom``."""
    bad = []
    for name in sorted(names):
        layer, *path = name.split(".")
        try:
            owner = importlib.import_module(f"colorhom.{layer}")
        except ImportError:
            bad.append(name)
            continue
        for attr in path[:-1]:
            owner = getattr(owner, attr, None)
        target = vars(owner).get(path[-1]) if owner is not None else None
        if not isinstance(target, types.FunctionType):
            bad.append(name)
    return bad


def test_every_benchmark_span_names_a_function():
    names = metric_span_names(
        (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8"),
        (ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    assert {"glinalg.hom_space", "glinalg.GradedMap.compose",
            "glinalg.GradedMap.kernel_at", "cohomology.verify_main_theorem",
            "algebra.validate_left_symmetric"} <= names
    assert unresolved(names) == []


def test_checker_finds_an_unresolved_span_name():
    run_source = ("def span_metrics(spans, wall):\n"
                  "    basis = ('glinalg.hom_space', 'glinalg.gone')\n"
                  "    get('cli.parse_spec', 'calls')\n"
                  "    get(name, 'calls')\n"
                  "    tracing.nested_calls(spans, 'cohomology.nope', 'cli.main')\n"
                  "def other():\n"
                  "    get('algebra.elsewhere', 'calls')\n")
    tracing_source = ("SPAN_METHODS = {'glinalg': {'GradedMap': ('compose', 'blocks'),\n"
                      "                            'Missing': ('x',)}}\n")
    names = metric_span_names(run_source, tracing_source)
    assert names == {"glinalg.hom_space", "glinalg.gone", "cli.parse_spec",
                     "cohomology.nope", "cli.main", "glinalg.GradedMap.compose",
                     "glinalg.GradedMap.blocks", "glinalg.Missing.x"}
    assert unresolved(names | {"nolayer.f"}) == [
        "cohomology.nope", "glinalg.GradedMap.blocks", "glinalg.Missing.x",
        "glinalg.gone", "nolayer.f"]
