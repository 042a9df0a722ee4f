"""The dense diagnostics against a dense route built one cell at a time.

The inf-sup survey, the broken stability bound and the annihilation
check read the broken test norm through the element stacks.  Here the
reference forms what they may leave out: the dense broken test Gram Gy
and operator B from ``Discretization.element_system``, cell by cell,
and a dense Cholesky factor of Gy.  Every constant must agree with it
to rounding.
"""

import numpy as np
import pytest
from scipy.linalg import cho_factor, cho_solve, cholesky, solve_triangular, svd

from dpgfem.formulations import MAXWELL_IDS, make_formulation
from dpgfem.meshes import build_structured
from dpgfem.system import Discretization
from dpgfem.verification import INFSUP_DCR_IDS, annihilation_check, \
    broken_stability_bound, conforming_test_embedding, infsup_survey
from oracles import cell_columns

REL = 1e-12


def _dense(disc):
    """(Gy, B, Gx, free): broken test Gram and operator assembled cell by
    cell, the dense trial Gram and the free trial dofs."""
    nt, nc = disc.ntest_local, disc.mesh.ncells
    Gy = np.zeros((nc * nt, nc * nt), dtype=disc.form.dtype)
    B = np.zeros((nc * nt, disc.ndof), dtype=disc.form.dtype)
    for ci in range(nc):
        G, Bk, _ = disc.element_system(ci)
        rows = slice(ci * nt, (ci + 1) * nt)
        Gy[rows, rows] = G
        B[rows, cell_columns(disc, ci)[0]] = Bk
    free = np.where(~disc.constrained_dofs())[0]
    return Gy, B, disc.trial_gram().toarray(), free


def _singular_values(B, Gy, Gx):
    """Singular values of B between the norms of Gy and Gx."""
    Ly = cholesky(Gy, lower=True)
    Lx = cholesky(Gx, lower=True)
    T = solve_triangular(Ly, B, lower=True)
    T = solve_triangular(Lx, T.conj().T, lower=True).conj().T
    return svd(T, compute_uv=False)


@pytest.mark.parametrize("ids,domain,n", [
    (INFSUP_DCR_IDS, "unit-square", 2),
    (MAXWELL_IDS, "unit-cube", 1),
])
def test_infsup_constants_match_dense_route(ids, domain, n):
    mesh = build_structured(domain, n)
    reports = infsup_survey(ids, mesh, p=1)
    assert [rep.formulation for rep in reports] == list(ids)
    for rep in reports:
        disc = Discretization(make_formulation(rep.formulation, p=1), mesh)
        Gy, B, Gx, free = _dense(disc)
        want = _singular_values(B[:, free], Gy, Gx[np.ix_(free, free)])[-1]
        assert rep.infsup == pytest.approx(want, rel=REL), rep.formulation


@pytest.mark.parametrize("n", [1, 2])
def test_stability_constants_match_dense_route(n):
    mesh = build_structured("unit-square", n)
    res = broken_stability_bound("primal_poisson", mesh, p=1)
    disc = Discretization(make_formulation("primal_poisson", p=1), mesh)
    Gy, B, Gx, free = _dense(disc)
    C = conforming_test_embedding(disc)
    free_f = free[free < disc.ndof_field]
    free_i = free[free >= disc.ndof_field]
    sv0 = _singular_values(C.T @ B[:, free_f], C.T @ Gy @ C,
                           Gx[np.ix_(free_f, free_f)])
    c0, b0norm = sv0[-1], sv0[0]
    chat = _singular_values(B[:, free_i], Gy, Gx[np.ix_(free_i, free_i)])[-1]
    c1 = _singular_values(B[:, free], Gy, Gx[np.ix_(free, free)])[-1]
    formula = 1.0 / np.sqrt(1.0 / c0 ** 2 + (b0norm / c0 + 1.0) ** 2 / chat ** 2)
    assert res.c0 == pytest.approx(c0, rel=REL)
    assert res.b0norm == pytest.approx(b0norm, rel=REL)
    assert res.chat == pytest.approx(chat, rel=REL)
    assert res.c1_discrete == pytest.approx(c1, rel=REL)
    assert res.c1_formula == pytest.approx(formula, rel=REL)


@pytest.mark.parametrize("fid,domain", [
    ("primal_poisson", "unit-square"),
    ("maxwell_primal_E", "unit-cube"),
])
def test_annihilation_matches_dense_route(fid, domain):
    mesh = build_structured(domain, 1)
    res = annihilation_check(fid, mesh, p=1)
    disc = Discretization(make_formulation(fid, p=1), mesh)
    Gy, B, _, _ = _dense(disc)
    Bhat = B[:, disc.ndof_field:]
    Gch = cho_factor(Gy)
    dualnorm = np.sqrt(np.real(np.einsum("yj,yj->j", Bhat.conj(),
                                         cho_solve(Gch, Bhat))))
    C = conforming_test_embedding(disc).astype(disc.form.dtype)
    ynorm = np.sqrt(np.real(np.einsum("yg,yg->g", C.conj(), Gy @ C)))
    pairing = np.abs(C.conj().T @ Bhat) / ynorm[:, None] / dualnorm[None, :]
    assert pairing.max() < 1e-12
    nt = disc.ntest_local
    witness = 0.0
    for g in range(C.shape[1]):
        cells = np.unique(np.nonzero(C[:, g])[0] // nt)
        if cells.size < 2:
            continue
        for ci in cells:
            y = np.zeros_like(C[:, g])
            rows = slice(ci * nt, (ci + 1) * nt)
            y[rows] = C[rows, g]
            yn = np.sqrt(np.real(y.conj() @ (Gy @ y)))
            if yn < 1e-14:
                continue
            witness = max(witness, float(
                (np.abs(y.conj() @ Bhat) / (yn * dualnorm)).max()))
    assert res.conforming_max < 1e-12
    assert res.witness == pytest.approx(witness, rel=REL)
