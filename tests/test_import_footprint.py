"""A dpgfem process loads no scipy subpackage that it does not use.

``scipy.special`` alone costs a fresh process about 3.7 MB of resident
memory and 35 ms; the quadrature lines that once came from it are now
computed from the eigenvalues of a Jacobi matrix (Golub and Welsch,
1969) by ``scipy.linalg``, which the solver loads anyway.  The check
runs in a fresh interpreter, since the test session itself imports
``scipy.special``.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# import, assemble and solve the 8-cell primal Poisson level at p = 1;
# print the loaded scipy modules
_SOLVE = """
import sys
import numpy as np
import dpgfem
form = dpgfem.make_formulation("primal_poisson", 1)
mesh = dpgfem.build_structured("unit-square", 2)
assert mesh.ncells == 8
disc = dpgfem.Discretization(form, mesh)
x = disc.solve(*disc.assemble(dpgfem.manufactured_case("poisson_sine_2d")))
assert np.all(np.isfinite(x)) and np.any(x != 0)
print(" ".join(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""


def test_a_solve_does_not_load_scipy_special():
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH":
           os.pathsep.join([str(SRC), *([path] if path else [])])}
    out = subprocess.run([sys.executable, "-c", _SOLVE], env=env,
                         capture_output=True, text=True, check=True)
    loaded = out.stdout.split()
    assert "scipy.sparse.linalg" in loaded and "scipy.linalg" in loaded
    assert "scipy.special" not in loaded
