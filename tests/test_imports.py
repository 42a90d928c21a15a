"""Every name a colorhom module imports is used in that module, every
private helper it defines is used somewhere in the package, and every
name the package exports exists.

Checks over the source (with ``ast``) and the imported package:

* a name bound by ``import`` or ``from ... import`` must be read somewhere
  in the module, or listed in its ``__all__`` (the package re-exports).  It
  catches the stale imports that deleting a helper leaves behind;
* a module-level ``_private`` function or constant, and a ``_private``
  method, must be read, by name or as an attribute, somewhere in the
  package outside its own definition.  It keeps a deleted helper, or the
  constant or method only it read, from surviving, or coming back, as dead
  code;
* a public module-level function or class must be read somewhere in the
  package outside its own definition, or be exported in
  ``colorhom.__all__``, or be one of the few kept for outside callers
  (``KEPT_UNREAD``).  It keeps a public helper that lost its last caller
  from surviving as dead code;
* a public method of a module-level class must be read as an attribute
  somewhere in the package outside its own definition, or be listed in
  ``KEPT_UNREAD`` as ``Class.method``.  Methods are matched by attribute
  name alone, so a method that shares its name with any attribute read
  elsewhere escapes (``GradedMap.rank`` did, through ``group.rank``), and
  so does one reached only through ``getattr``;
* every name in ``colorhom.__all__`` is an attribute of the package and
  is listed once, so a deletion cannot leave a stale export behind;
* every span name the benchmark reads a per-layer metric from
  (``layer.function`` or ``layer.Class.method``) must name a function of
  the package, so that a rename cannot silently zero a metric;
* the attribute ``products``, the dense view of an algebra's product, is
  read only in ``algebra.py`` and in ``cohomology.naive_oracle_table``, so
  the main path reads the sparse ``rows`` and the dense format stays
  behind one module and the independent reference.
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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def is_private(name):
    return name.startswith("_") and not name.endswith("__")


def names_read(node):
    """Each name read in ``node``, by name or as an attribute."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def unreferenced_private_names(sources):
    """(module, name, line) of each ``_private`` module-level function or
    constant, and of each ``_private`` method (named ``Class._method``), that
    no module in ``sources`` ({module: source}) reads outside its own
    definition.  Dunder names are not private."""
    defined, reads = [], []

    def scan(node, mod, owner):
        reads.extend((name, mod, owner) for name in names_read(node))

    def define(mod, owner, name, line):
        if is_private(name):
            defined.append((mod, owner, name, line))

    for mod, source in sources.items():
        for top in ast.parse(source).body:
            if isinstance(top, ast.ClassDef):
                for item in top.body:
                    owner = None
                    if isinstance(item, FUNCTIONS):
                        owner = f"{top.name}.{item.name}"
                        define(mod, owner, item.name, item.lineno)
                    scan(item, mod, owner)
                for item in top.decorator_list + top.bases + top.keywords:
                    scan(item, mod, None)
                continue
            owner = None
            if isinstance(top, FUNCTIONS):
                owner = top.name
                define(mod, owner, owner, top.lineno)
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = [n.id for t in targets for n in ast.walk(t)
                         if isinstance(n, ast.Name)]
                owner = names[0] if len(names) == 1 else None
                for name in names:
                    define(mod, name, name, top.lineno)
            scan(top, mod, owner)
    return [(mod, owner, line) for mod, owner, name, line in defined
            if not any(r == name and (m, o) != (mod, owner) for r, m, o in reads)]


def test_every_private_name_is_referenced():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


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
    assert unreferenced_private_names(sources) == [
        ("a.py", "_recursive", 5), ("b.py", "_dead", 2)]


def test_checker_finds_unreferenced_private_constants_and_methods():
    sources = {
        "a.py": ("__all__ = ['Box']\n"
                 "_SCALE = 2\n"
                 "_UNUSED = 3\n"
                 "_SELF: int = 4\n"
                 "_SELF = _SELF + 1\n"
                 "_PAIR, _OTHER = 5, 6\n"
                 "class Box:\n"
                 "    _kind = 'box'\n"
                 "    def __init__(self):\n"
                 "        self._fill()\n"
                 "    def _fill(self):\n"
                 "        return _SCALE\n"
                 "    def _dead(self):\n"
                 "        return self._dead()\n"
                 "    def _remote(self):\n"
                 "        return 1\n"),
        "b.py": ("from . import a\n"
                 "def public(box):\n"
                 "    return box._remote() + a._PAIR\n"),
    }
    assert unreferenced_private_names(sources) == [
        ("a.py", "_UNUSED", 3), ("a.py", "_SELF", 4), ("a.py", "_SELF", 5),
        ("a.py", "_OTHER", 6), ("a.py", "Box._dead", 13)]


# public names no module of the package reads and the package does not
# export, and public methods it never reads, each kept for callers outside it
KEPT_UNREAD = {
    ("cli.py", "spec_to_json"): "emits the problem format parse_spec reads, for round trips",
    ("grading.py", "GradingGroup.elements"): "the tests enumerate groups with it",
}


def unread_public_names(sources, exported):
    """(module, name, line) of each public module-level function or class
    that no module in ``sources`` ({module: source}) reads outside its own
    definition, by name or as an attribute, and that is not in
    ``exported``."""
    defined, reads = [], []
    for mod, source in sources.items():
        for top in ast.parse(source).body:
            owner = None
            if isinstance(top, FUNCTIONS + (ast.ClassDef,)):
                owner = top.name
                if not top.name.startswith("_"):
                    defined.append((mod, top.name, top.lineno))
            reads.extend((name, mod, owner) for name in names_read(top))
    return [(mod, name, line) for mod, name, line in defined
            if name not in exported
            and not any(r == name and (m, o) != (mod, name) for r, m, o in reads)]


def test_every_public_name_is_read_or_exported():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = unread_public_names(sources, set(colorhom.__all__))
    kept = {key for key in KEPT_UNREAD if "." not in key[1]}
    assert {(mod, name) for mod, name, _ in found} == kept, found


def test_checker_finds_an_unread_public_name():
    sources = {
        "a.py": ("def used():\n"
                 "    return 1\n"
                 "def exported():\n"
                 "    return used() + _private()\n"
                 "def remote():\n"
                 "    return 2\n"
                 "def orphan(n):\n"
                 "    return orphan(n - 1) if n else 0\n"
                 "class Lonely:\n"
                 "    def copy(self):\n"
                 "        return Lonely()\n"
                 "def _private():\n"
                 "    return 3\n"),
        "b.py": ("from . import a\n"
                 "def reader():\n"
                 "    return a.remote()\n"),
    }
    assert unread_public_names(sources, {"exported", "reader"}) == [
        ("a.py", "orphan", 7), ("a.py", "Lonely", 9)]


def unread_public_methods(sources):
    """(module, "Class.method", line) of each public method of a
    module-level class that no module in ``sources`` ({module: source})
    reads as an attribute outside the method's own definition."""
    defined, reads = [], []
    for mod, source in sources.items():
        for top in ast.parse(source).body:
            items = top.body if isinstance(top, ast.ClassDef) else [top]
            for item in items:
                owner = None
                if isinstance(top, ast.ClassDef) and isinstance(item, FUNCTIONS):
                    owner = f"{top.name}.{item.name}"
                    if not item.name.startswith("_"):
                        defined.append((mod, owner, item.name, item.lineno))
                reads.extend((n.attr, mod, owner) for n in ast.walk(item)
                             if isinstance(n, ast.Attribute)
                             and isinstance(n.ctx, ast.Load))
    return [(mod, owner, line) for mod, owner, name, line in defined
            if not any(r == name and (m, o) != (mod, owner) for r, m, o in reads)]


def test_every_public_method_is_read():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    found = unread_public_methods(sources)
    kept = {key for key in KEPT_UNREAD if "." in key[1]}
    assert {(mod, name) for mod, name, _ in found} == kept, found


def test_checker_finds_an_unread_public_method():
    sources = {
        "a.py": ("class Box:\n"
                 "    def __init__(self):\n"
                 "        self.size = self.measure()\n"
                 "    def measure(self):\n"
                 "        return 1\n"
                 "    def remote(self):\n"
                 "        return 2\n"
                 "    def again(self):\n"
                 "        return self.again()\n"
                 "    def shadowed(self):\n"
                 "        return 3\n"
                 "    def orphan(self):\n"
                 "        return 4\n"
                 "    @property\n"
                 "    def label(self):\n"
                 "        return 'box'\n"
                 "def orphan():\n"
                 "    return Box().label\n"),
        "b.py": ("from . import a\n"
                 "def reader(box, other):\n"
                 "    other.shadowed = 5\n"
                 "    return box.remote() + other.shadowed\n"),
    }
    # a bare name is not an attribute read, so the function orphan does
    # not keep the method orphan; a read of another object's attribute of
    # the same name (other.shadowed) does keep shadowed
    assert unread_public_methods(sources) == [
        ("a.py", "Box.again", 8), ("a.py", "Box.orphan", 12)]


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


# (module, module-level function or class) allowed to read ``.products``;
# None stands for the whole module
DENSE_PRODUCT_READERS = {("algebra.py", None),
                         ("cohomology.py", "naive_oracle_table")}


def dense_product_reads(sources):
    """(module, owner, line) of each read of the attribute ``products`` in
    ``sources`` ({module: source}) outside ``DENSE_PRODUCT_READERS``; the
    owner is the enclosing module-level function or class, or None."""
    found = []
    for mod, source in sources.items():
        if (mod, None) in DENSE_PRODUCT_READERS:
            continue
        for top in ast.parse(source).body:
            owner = getattr(top, "name", None)
            if (mod, owner) in DENSE_PRODUCT_READERS:
                continue
            found += [(mod, owner, n.lineno) for n in ast.walk(top)
                      if isinstance(n, ast.Attribute) and n.attr == "products"
                      and isinstance(n.ctx, ast.Load)]
    return found


def test_only_the_algebra_and_the_oracle_read_dense_products():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in sorted(PACKAGE.glob("*.py"))}
    assert dense_product_reads(sources) == []


def test_checker_finds_a_dense_product_read():
    sources = {
        "algebra.py": ("def commutator(A):\n"
                       "    return A.products\n"),
        "cohomology.py": ("def naive_oracle_table(A):\n"
                          "    return A.products.get((0, 0))\n"
                          "def lsca_coboundary(A):\n"
                          "    return A.rows, A.products\n"),
        "cli.py": ("class Spec:\n"
                   "    def show(self, L):\n"
                   "        self.products = L.rows\n"
                   "        return sorted(L.products.items())\n"
                   "TOP = ALGEBRA.products\n"),
    }
    assert dense_product_reads(sources) == [
        ("cohomology.py", "lsca_coboundary", 4), ("cli.py", "Spec", 4),
        ("cli.py", None, 5)]
