"""Every name a colorhom module imports is used in that module, and every
private helper it defines is used somewhere in the package.

Static checks over the source with ``ast``:

* a name bound by ``import`` or ``from ... import`` must be read somewhere
  in the module, or listed in its ``__all__`` (the package re-exports).  It
  catches the stale imports that deleting a helper leaves behind;
* a module-level ``_private`` function must be read, by name or as an
  attribute, somewhere in the package outside its own body.  It keeps a
  deleted helper from surviving, or coming back, as dead code.
"""

import ast
import pathlib

import pytest

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "colorhom"


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
