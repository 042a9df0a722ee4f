"""No module of ``src/dpgfem`` imports a name that it never uses.

No linter is part of the toolchain, so this reads each module's syntax
tree: every name that an import binds must be read somewhere in the
module, unless the import's line carries ``# noqa: F401`` (a name kept
for readers outside the module, such as the benchmark's tracer).
``__init__`` is skipped, since it imports to re-export.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dpgfem"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


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
