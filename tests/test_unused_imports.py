"""No module of ``src/dpgfem`` imports a name that it never uses, and
none defines a name that nothing names.

No linter is part of the toolchain, so this reads each module's syntax
tree: every name that an import binds must be read somewhere in the
module, unless the import's line carries ``# noqa: F401`` (a name kept
for readers outside the module, such as the benchmark's tracer).
``__init__`` is skipped, since it imports to re-export.  Every
module-level function, class and constant, and every method and property
of a class, must be named (read as a name or an attribute, imported, or
given as a string, as the benchmark's tracer gives the names it wraps)
by some file in ``src/dpgfem``, ``tests`` or ``bench``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "dpgfem"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted([*SRC.glob("*.py"), *(ROOT / "tests").rglob("*.py"),
                  *(ROOT / "bench").rglob("*.py")])


def unused_imports(source):
    """(line, name) of every imported name that the source never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" not in lines[alias.lineno - 1]:
                    name = alias.asname or alias.name.split(".")[0]
                    bound[name] = alias.lineno
    # an attribute chain such as np.linalg starts with the Name np
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_guard_sees_an_unused_import():
    source = ("from __future__ import annotations\n"
              "import os\n"
              "import numpy as np\n"
              "from scipy.linalg import (\n"
              "    eigh,  # noqa: F401 -- read from outside\n"
              "    svd,\n"
              ")\n"
              "x = np.zeros(3)\n")
    assert unused_imports(source) == [(2, "os"), (6, "svd")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((SRC / module).read_text(encoding="utf-8")) == []


def definitions(source):
    """(line, name) of the module-level functions, classes and constants
    of a source, dunder names left out."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out.append((node.lineno, node.name))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            out += [(node.lineno, n.id) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
    return [(line, name) for line, name in out
            if not (name.startswith("__") and name.endswith("__"))]


def methods(source):
    """(line, name) of the methods and properties of every class of a
    source, dunder names left out."""
    return [(f.lineno, f.name) for c in ast.walk(ast.parse(source))
            if isinstance(c, ast.ClassDef) for f in c.body
            if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
            and not (f.name.startswith("__") and f.name.endswith("__"))]


def names_read(source):
    """Every name a source names: a name or attribute it reads, a name it
    imports, or a string constant."""
    out = set()
    for n in ast.walk(ast.parse(source)):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.split(".")[-1])
        elif isinstance(n, ast.Constant) and isinstance(n.value, str):
            out.add(n.value)
    return out


def test_the_guard_sees_a_dead_definition():
    source = ("import numpy as np\n"
              "LIMIT = 3\n"
              "UNUSED = 4\n"
              "def used():\n"
              "    return np.zeros(LIMIT)\n"
              "def dead():\n"
              "    return used()\n"
              "class Dead:\n"
              "    pass\n")
    named = names_read(source)
    assert [d for d in definitions(source) if d[1] not in named] == [
        (3, "UNUSED"), (6, "dead"), (8, "Dead")]


def test_the_guard_sees_a_dead_method():
    source = ("class Tables:\n"
              "    def __init__(self, n):\n"
              "        self.n = self.size()\n"
              "    def size(self):\n"
              "        return 3\n"
              "    @property\n"
              "    def shape(self):\n"
              "        return (self.n,)\n"
              "    def classes(self):\n"
              "        return getattr(self, 'shape')\n"
              "    def dead(self):\n"
              "        return None\n"
              "t = Tables(2).classes()\n")
    named = names_read(source)
    assert [d for d in methods(source) if d[1] not in named] == [
        (11, "dead")]


_NAMED = set()


def _named():
    if not _NAMED:
        for path in READERS:
            _NAMED.update(names_read(path.read_text(encoding="utf-8")))
    return _NAMED


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_definition(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert [d for d in definitions(source) if d[1] not in _named()] == []


@pytest.mark.parametrize("module", MODULES)
def test_no_dead_method(module):
    source = (SRC / module).read_text(encoding="utf-8")
    assert [d for d in methods(source) if d[1] not in _named()] == []
