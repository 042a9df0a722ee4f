"""One arithmetic path: real matrices for every formulation.

Every coefficient of the catalog is real or i times real, so a phase of
1 or i per slot (``Formulation.phases``) makes every matrix real: G, B,
their class stacks, the condensed A and the trial Gram G_X.  Only loads
and solutions stay complex.  ``assemble`` returns the phased system
D_x^H A D_x, D_x^H f; ``solve`` returns the physical x = D_x y.

The physical reference is ``element_system``, which
``test_reference_tensors`` checks against point-by-point quadrature.
Each Maxwell form, in both modes, on the 5-tet and 40-tet cubes, must
give the phased A of the condensed physical element systems, the
physical solution of a complex solve of the physical system, and the
indicators of the physical element residuals.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import spsolve

from dpgfem import formulations as fm
from dpgfem.formulations import (
    DCR_IDS,
    MAXWELL_IDS,
    make_formulation,
    manufactured_case,
)
from dpgfem.meshes import build_structured, refine_uniform
from dpgfem.system import Discretization, condense
from oracles import cell_columns

# the slots with phase i; every other slot has phase 1
PHASE_I = {
    "maxwell_ultraweak": {"E", "Ehat", "R"},
    "maxwell_dual_mixed": {"E", "Ehat", "R"},
    "maxwell_mixed": {"E", "R"},
    "maxwell_strong": {"E", "R"},
    "maxwell_primal_E": {"Hhat"},
    "maxwell_primal_H": {"Ehat"},
}


@pytest.mark.parametrize("fid", MAXWELL_IDS + DCR_IDS)
def test_phases_follow_the_terms(fid):
    form = make_formulation(fid, 1)
    slots = form.trial_slots + form.interface_slots + form.test_slots
    assert sorted(form.phases) == sorted(s.name for s in slots)
    assert {k for k, v in form.phases.items() if v == 1j} == \
        PHASE_I.get(fid, set())
    assert all(v in (1.0, 1j) for v in form.phases.values())


def test_a_term_without_a_real_phase_is_rejected(monkeypatch):
    """i on H tested with S: H and S take phase 1 from the other terms,
    so no phases make the added term real."""
    trial, interface, test, (one, two) = fm._CATALOG["maxwell_strong"]
    bad = (two[0] + (("i", "H", "S"),),) + two[1:]
    monkeypatch.setitem(fm._CATALOG, "maxwell_strong",
                        (trial, interface, test, [one, bad]))
    with pytest.raises(ValueError, match=r"'maxwell_strong': no phases 1 or "
                       r"i of the slots make the term 'i' on 'H' and 'S' "
                       r"real"):
        make_formulation("maxwell_strong", 1)


def _mesh(name):
    mesh = build_structured("unit-cube", 1)
    return mesh if name == "5tet" else refine_uniform(mesh)


CONFIGS = [(fid, mode, mesh) for fid in MAXWELL_IDS
           for mode in ("guaranteed", "economy") for mesh in ("5tet", "40tet")]


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("fid,mode,mesh_name", CONFIGS,
                         ids=[f"{f}-{m}-{n}" for f, m, n in CONFIGS])
def test_phased_system_equals_the_physical_one(fid, mode, mesh_name):
    mesh = _mesh(mesh_name)
    form = make_formulation(fid, 1, delta=2 if mode == "economy" else 3,
                            mode=mode)
    case = manufactured_case("maxwell_sine_3d")
    disc = Discretization(form, mesh)
    st = disc.element_stacks
    A, f = disc.assemble(case)
    stacks = [st.Linv, st.W, A.data, disc.trial_gram().data]
    stacks += [disc._interfaces[s.name].cell_grams
               for s in form.interface_slots]
    assert all(m.dtype == np.float64 for m in stacks)
    assert np.iscomplexobj(f)

    # the physical system, summed from the condensed element systems
    n = disc.ndof
    A_phys = np.zeros((n, n), dtype=complex)
    f_phys = np.zeros(n, dtype=complex)
    systems = [disc.element_system(ci, case) for ci in range(mesh.ncells)]
    for ci, (G, B, l) in enumerate(systems):
        A_K, f_K = condense(G, B, l)
        idx, _ = cell_columns(disc, ci)
        A_phys[np.ix_(idx, idx)] += A_K
        f_phys[idx] += f_K
    d = disc.dof_phases
    assert _rel(A.toarray(), d.conj()[:, None] * A_phys * d) <= 1e-12
    assert _rel(f, d.conj() * f_phys) <= 1e-12

    x = disc.solve(A, f)
    free = np.flatnonzero(~disc.constrained_dofs())
    ref = np.zeros(n, dtype=complex)
    ref[free] = spsolve(sparse.csc_matrix(A_phys[np.ix_(free, free)]),
                        f_phys[free])
    assert _rel(x, ref) <= 1e-10

    eta2 = np.zeros(mesh.ncells)
    for ci, (G, B, l) in enumerate(systems):
        idx, _ = cell_columns(disc, ci)
        eps = np.linalg.solve(G, l - B @ x[idx])
        eta2[ci] = np.real(np.vdot(eps, G @ eps))
    np.testing.assert_allclose(disc.estimate(x, case).eta_cells,
                               np.sqrt(eta2), rtol=1e-12)
