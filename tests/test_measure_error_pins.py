"""Pinned trial-norm errors of ``measure_error`` for a seeded vector.

Every formulation with interface slots is measured on a small mesh (the
8-triangle square for diffusion, the 5-tet cube for Maxwell) against
its manufactured case, for a seeded nonzero coefficient vector x.  The
pins are each slot's natural-norm error and the total: the interface
errors read the facet projection of the exact trace, the quotient
Grams and the exact-field names of the field slots, so a change in any
of them moves a pin.
"""

import numpy as np
import pytest

from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import build_structured
from dpgfem.system import Discretization

# name -> (formulation id, mode, manufactured case, case params as
# coefficients)
SETUPS = {
    "primal_poisson": ("primal_poisson", "guaranteed", "poisson_sine_2d",
                       False),
    "ultraweak_dcr": ("ultraweak_dcr", "guaranteed", "dcr_sine_2d", True),
    "mixed_dcr": ("mixed_dcr", "guaranteed", "poisson_sine_2d", False),
    "dual_mixed_dcr": ("dual_mixed_dcr", "guaranteed", "poisson_sine_2d",
                       False),
    "maxwell_ultraweak": ("maxwell_ultraweak", "guaranteed",
                          "maxwell_sine_3d", False),
    "maxwell_ultraweak_economy": ("maxwell_ultraweak", "economy",
                                  "maxwell_sine_3d", False),
    "maxwell_primal_E": ("maxwell_primal_E", "guaranteed", "maxwell_sine_3d",
                         False),
    "maxwell_primal_H": ("maxwell_primal_H", "guaranteed", "maxwell_sine_3d",
                         False),
}


def measure(name):
    """slot -> natural-norm error, and 'total', for one setup."""
    fid, mode, case_name, with_params = SETUPS[name]
    case = manufactured_case(case_name)
    form = make_formulation(fid, 1, delta=2 if mode == "economy" else 3,
                            params=case.params if with_params else None,
                            mode=mode)
    mesh = build_structured("unit-square" if form.dim == 2 else "unit-cube",
                            2 if form.dim == 2 else 1)
    disc = Discretization(form, mesh)
    rng = np.random.default_rng(11)
    x = rng.standard_normal(disc.ndof)
    if form.is_complex:
        x = x + 1j * rng.standard_normal(disc.ndof)
    errors = disc.measure_error(x, case)
    return {slot: value if slot == "total" else value["natural"]
            for slot, value in errors.items()}


# Values recorded before the interface spaces were shared between slots.
PINNED = {
    "primal_poisson": {
        "u": 8.876994368474428,
        "sighat": 10.039349056736862,
        "total": 13.40110288375289,
    },
    "ultraweak_dcr": {
        "sigma": 5.086615695740521,
        "u": 4.4272034285196105,
        "uhat": 10.641786883233726,
        "sighat": 12.669438489754317,
        "total": 17.86717910436572,
    },
    "mixed_dcr": {
        "sigma": 5.0834617323536335,
        "u": 10.485345579604736,
        "sighat": 9.75943949126945,
        "total": 15.199694546002894,
    },
    "dual_mixed_dcr": {
        "sigma": 42.86942633817931,
        "u": 7.773829989211139,
        "uhat": 13.102178055867562,
        "total": 45.49601319976727,
    },
    "maxwell_ultraweak": {
        "H": 5.457703487405354,
        "E": 6.445327253465335,
        "Hhat": 28.554199164311974,
        "Ehat": 24.800471228938452,
        "total": 38.75221843783009,
    },
    "maxwell_ultraweak_economy": {
        "H": 5.634872512886715,
        "E": 7.75103971205404,
        "Hhat": 8.841962222347231,
        "Ehat": 8.802081040910583,
        "total": 15.731730084339043,
    },
    "maxwell_primal_E": {
        "E": 7.780787973016826,
        "Hhat": 25.919421464202184,
        "total": 27.062096565491526,
    },
    "maxwell_primal_H": {
        "H": 12.998455765908167,
        "Ehat": 25.73347526911981,
        "total": 28.830046856095677,
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_measure_error_matches_pinned_values(name):
    got, want = measure(name), PINNED[name]
    assert sorted(got) == sorted(want)
    for slot, value in want.items():
        assert got[slot] == pytest.approx(value, rel=1e-12), slot
