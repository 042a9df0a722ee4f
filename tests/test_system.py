"""Condensed normal equations, assembly, solve and estimator invariants."""

import numpy as np
import pytest
import scipy.sparse as sparse
from scipy.sparse.linalg import splu

from dpgfem.adaptivity import adaptive_solve
from dpgfem.formulations import ManufacturedCase, make_formulation, \
    manufactured_case
from dpgfem.meshes import build_structured, refine_marked, refine_uniform
from dpgfem.system import Discretization, SingularSystemError, _factor, \
    condense
from oracles import cell_columns, pg_assemble
from test_quotient_norms import converged_opnorm


def _random_spd(rng, n):
    M = rng.standard_normal((n, n))
    return M @ M.T + n * np.eye(n)


def test_element_system_rejects_cell_ids_out_of_range(two_tri):
    disc = Discretization(make_formulation("primal_poisson", 1), two_tri)
    for ci in (-1, two_tri.ncells):
        with pytest.raises(ValueError, match=f"ci={ci} .* ncells=2"):
            disc.element_system(ci)
    with pytest.raises(ValueError, match="ci must be an integer"):
        disc.element_system(0.5)


def test_condense_zero_form(rng):
    G = _random_spd(rng, 7)
    B = np.zeros((7, 4))
    l = rng.standard_normal(7)
    A, f = condense(G, B, l)
    assert np.allclose(A, 0) and np.allclose(f, 0)


def test_condense_identity_gram(rng):
    B = rng.standard_normal((8, 5))
    l = rng.standard_normal(8)
    A, f = condense(np.eye(8), B, l)
    assert np.allclose(A, B.T @ B, atol=1e-12)
    assert np.allclose(f, B.T @ l, atol=1e-12)


def test_condense_is_positive_semidefinite(rng):
    G = _random_spd(rng, 9)
    B = rng.standard_normal((9, 6))
    A, _ = condense(G, B, np.zeros(9))
    lam = np.linalg.eigvalsh(A)
    assert lam.min() > -1e-12 * np.abs(lam).max()


def test_assembly_hermitian_and_deterministic(eight_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, eight_tri)
    case = manufactured_case("poisson_sine_2d")
    A1, f1 = disc.assemble(case)
    A2, f2 = disc.assemble(case)
    assert np.array_equal(A1.toarray(), A2.toarray()), "assembly must be bit-identical"
    assert np.array_equal(f1, f2)
    D = A1.toarray()
    assert np.linalg.norm(D - D.conj().T) < 1e-12 * np.linalg.norm(D)


def test_single_cell_assembly_matches_element_system():
    mesh = build_structured("unit-square", 1)
    # restrict to one triangle by marking nothing: use the 2-cell mesh and
    # compare instead on the cell-local block structure
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, mesh)
    A, _ = disc.assemble()
    G, B, l = disc.element_system(0)
    A0, _ = condense(G, B, l)
    idx, _ = cell_columns(disc, 0)
    # dofs private to cell 0 carry exactly the element value
    shared, _ = cell_columns(disc, 1)
    private = [k for k, d in enumerate(idx) if d not in set(shared)]
    assert private
    sub = A.toarray()[np.ix_(idx[private], idx[private])]
    assert np.allclose(sub, A0[np.ix_(private, private)], atol=1e-13)


def test_interface_dofs_accumulate_both_cells(two_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, two_tri)
    idx0, _ = cell_columns(disc, 0)
    idx1, _ = cell_columns(disc, 1)
    shared = sorted(set(idx0) & set(idx1))
    assert shared, "cells must share diagonal interface dofs"
    A, _ = disc.assemble()
    G, B, l = disc.element_system(0)
    A0, _ = condense(G, B, l)
    j = shared[0]
    k0 = list(idx0).index(j)
    assert abs(A.toarray()[j, j]) > abs(A0[k0, k0]) + 1e-12


def test_zero_load_gives_zero_solution(eight_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, eight_tri)
    A, f = disc.assemble()
    x = disc.solve(A, f)
    assert np.max(np.abs(x)) == 0.0


def test_solve_errors_on_singular_matrix(two_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, two_tri)
    A = sparse.csc_matrix((disc.ndof, disc.ndof))
    f = np.zeros(disc.ndof)
    f[0] = 1.0
    with pytest.raises(SingularSystemError) as info:
        disc.solve(A, f)
    assert abs(info.value.smallest_ritz) < 1e-10


@pytest.mark.parametrize("extra", [1, -1], ids=["long", "short"])
def test_coefficient_vector_of_wrong_length_rejected(eight_tri, extra):
    form = make_formulation("primal_poisson", 1)
    case = manufactured_case("poisson_sine_2d")
    disc = Discretization(form, eight_tri)
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    n = disc.ndof
    bad = np.resize(x, n + extra)
    message = rf"x has shape \({n + extra},\), but ndof is {n}"
    with pytest.raises(ValueError, match=message):
        disc.estimate(bad, case)
    with pytest.raises(ValueError, match=message):
        disc.measure_error(bad, case)
    with pytest.raises(ValueError, match=message.replace("x", "f", 1)):
        disc.solve(A, np.resize(f, n + extra))
    with pytest.raises(ValueError,
                       match=rf"A has shape \({n + extra}, {n + extra}\)"):
        disc.solve(sparse.eye(n + extra, format="csr"), f)


def test_error_decreases_under_refinement(two_tri):
    form = make_formulation("primal_poisson", 1)
    case = manufactured_case("poisson_sine_2d")
    errs = []
    mesh = two_tri
    for _ in range(2):
        disc = Discretization(form, mesh)
        A, f = disc.assemble(case)
        x = disc.solve(A, f)
        errs.append(disc.measure_error(x, case)["total"])
        mesh = refine_uniform(mesh)
    assert errs[1] < errs[0]


@pytest.mark.parametrize("ncells_mesh", ["two", "four"])
def test_condensed_solve_equals_optimal_test_space_solve(ncells_mesh):
    """The normal equations and the explicit Petrov-Galerkin realization
    of the optimal test space must produce the same coefficients."""
    mesh = build_structured("unit-square", 1)
    if ncells_mesh == "four":
        mesh = refine_marked(mesh, {0, 1})
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, mesh)
    case = manufactured_case("poisson_sine_2d")
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    Apg, fpg = pg_assemble(disc, case)
    xpg = disc.solve(Apg, fpg)
    assert np.max(np.abs(x - xpg)) < 1e-10


def test_estimator_zero_for_zero_data(eight_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, eight_tri)
    x = np.zeros(disc.ndof)
    est = disc.estimate(x, None)
    assert est.eta == 0.0
    assert np.allclose(est.eta_cells, 0.0)


def test_estimator_orthogonality_at_solution(eight_tri):
    form = make_formulation("primal_poisson", 2)
    disc = Discretization(form, eight_tri)
    case = manufactured_case("poisson_sine_2d")
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    est = disc.estimate(x, case)
    assert est.orthogonality < 1e-9


def test_estimator_grows_under_perturbation(eight_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, eight_tri)
    case = manufactured_case("poisson_sine_2d")
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    eta0 = disc.estimate(x, case).eta
    free = np.where(~disc.constrained_dofs())[0]
    for j in free[:3]:
        y = x.copy()
        y[j] += 0.1
        assert disc.estimate(y, case).eta > eta0


@pytest.mark.parametrize("fid,p", [("primal_poisson", 1),
                                   ("ultraweak_dcr", 1)])
def test_estimator_efficiency_bound(eight_tri, fid, p):
    """eta is bounded by the continuity constant times the total error."""
    form = make_formulation(fid, p)
    disc = Discretization(form, eight_tri)
    case = manufactured_case("poisson_sine_2d" if fid == "primal_poisson"
                             else "dcr_sine_2d")
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    eta = disc.estimate(x, case).eta
    total = disc.measure_error(x, case)["total"]
    bnorm = disc.opnorm()
    assert eta <= 1.05 * bnorm * total


def test_exact_solution_in_trial_space_is_reproduced(eight_tri):
    """With a quartic manufactured solution and quartic trial space the
    discrete solution is exact and the estimator vanishes."""

    def u(x):
        return x[:, 0] * (1 - x[:, 0]) * x[:, 1] * (1 - x[:, 1])

    def grad_u(x):
        gx = (1 - 2 * x[:, 0]) * x[:, 1] * (1 - x[:, 1])
        gy = x[:, 0] * (1 - x[:, 0]) * (1 - 2 * x[:, 1])
        return np.stack([gx, gy], axis=1)

    def f2(x):
        return 2 * x[:, 1] * (1 - x[:, 1]) + 2 * x[:, 0] * (1 - x[:, 0])

    case = ManufacturedCase(
        "poisson_bubble", 2,
        {"a": 1.0, "beta": np.zeros(2), "gamma": 0.0},
        {"u": u, "grad_u": grad_u, "sigma": grad_u, "f2": f2,
         "div_sigma": lambda x: -f2(x)})
    form = make_formulation("primal_poisson", 3)
    disc = Discretization(form, eight_tri)
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    errors = disc.measure_error(x, case)
    assert errors["total"] < 1e-9
    assert disc.estimate(x, case).eta < 1e-9


def test_real_system_solves_a_complex_load(two_tri):
    """A real condensed matrix takes a complex load, solved as two real
    solves."""
    disc = Discretization(make_formulation("primal_poisson", 1), two_tri)
    A, f = disc.assemble(manufactured_case("poisson_sine_2d"))
    x = disc.solve(A, f)
    z = disc.solve(A, 1j * f)
    assert z.dtype == complex
    assert np.abs(z - 1j * x).max() <= 1e-14 * np.abs(x).max()


def _factor_setup(name):
    """(Discretization, case) of one matrix class the LU sees."""
    if name == "maxwell_ultraweak":
        return (Discretization(make_formulation(name, 1),
                               build_structured("unit-cube", 1)),
                manufactured_case("maxwell_sine_3d"))
    if name == "lshape_adaptive":
        case = manufactured_case("poisson_lshape_singular")
        _, state = adaptive_solve(make_formulation("primal_poisson", 2),
                                  build_structured("l-shape", 2), case, 0.5,
                                  max_iterations=6)
        return state.disc, case
    mesh = build_structured("unit-square", 2)
    for _ in range(3):
        mesh = refine_uniform(mesh)
    return (Discretization(make_formulation("primal_poisson", 1), mesh),
            manufactured_case("poisson_sine_2d"))


@pytest.mark.parametrize("name", ["poisson_512", "lshape_adaptive",
                                  "maxwell_ultraweak"])
def test_factor_settings_keep_accuracy_and_fill(name):
    """With its supernode settings _factor solves the reduced condensed
    system to a relative residual of 1e-12 and keeps the fill of
    SuperLU's defaults to 0.1 %: on a uniform 2D mesh, a graded
    adaptive one and a complex 3D system."""
    disc, case = _factor_setup(name)
    A, f = disc.assemble(case)
    free = np.flatnonzero(~disc.constrained_dofs())
    Aff, ff = A[np.ix_(free, free)].tocsc(), f[free]
    lu = _factor(Aff)
    x = lu.solve(ff)
    assert np.linalg.norm(Aff @ x - ff) <= 1e-12 * np.linalg.norm(ff)
    ref = splu(Aff, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
               options={"SymmetricMode": True})
    nnz, ref_nnz = lu.L.nnz + lu.U.nnz, ref.L.nnz + ref.U.nnz
    assert abs(nnz - ref_nnz) <= 1e-3 * ref_nnz


def test_constraint_count_primal_poisson(two_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, two_tri)
    mask = disc.constrained_dofs()
    # 8 of the 9 quadratic vertex/edge dofs sit on the boundary; the
    # facet fluxes carry no essential condition
    assert int(mask.sum()) == 8
    assert not mask[disc.ndof_field:].any()


def test_conditioning_snapshot(eight_tri):
    form = make_formulation("primal_poisson", 1)
    disc = Discretization(form, eight_tri)
    A, _ = disc.assemble(manufactured_case("poisson_sine_2d"))
    assert disc.conditioning(A) == pytest.approx(1.2620e3, rel=1e-3)


@pytest.mark.parametrize("fid,p,mesh_name,value", [
    ("primal_poisson", 2, "unit-square", 1.406718),
    ("maxwell_ultraweak", 1, "unit-cube", 1.713171),
])
def test_continuity_norm_snapshot(fid, p, mesh_name, value):
    """The snapshot is the converged norm of b; opnorm stops its Lanczos
    iteration after a fixed number of steps, so it is checked as a close
    lower bound."""
    mesh = build_structured(mesh_name, 1)
    disc = Discretization(make_formulation(fid, p), mesh)
    top = converged_opnorm(disc)
    assert top == pytest.approx(value, rel=1e-5)
    assert 0.99 * top <= disc.opnorm() <= top * (1 + 1e-12)


@pytest.mark.parametrize("params", [
    {"a": np.ones(100)},
    {"a": np.ones(3)},
    {"beta": np.ones((3, 2))},
])
def test_per_cell_coefficient_of_wrong_length_rejected(eight_tri, params):
    form = make_formulation("primal_dcr", 1, params=params)
    key = next(iter(params))
    with pytest.raises(ValueError, match=repr(key)):
        Discretization(form, eight_tri)


def test_solve_errors_on_zeroed_free_dof(eight_tri):
    form = make_formulation("primal_poisson", 2)
    disc = Discretization(form, eight_tri)
    A, f = disc.assemble(manufactured_case("poisson_sine_2d"))
    dof = int(np.flatnonzero(~disc.constrained_dofs())[3])
    keep = np.ones(disc.ndof)
    keep[dof] = 0.0
    D = sparse.diags(keep)
    A = (D @ A @ D).tocsc()
    f = f.copy()
    f[dof] = 1.0
    with pytest.raises(SingularSystemError) as info:
        disc.solve(A, f)
    assert abs(info.value.smallest_ritz) < 1e-10


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_load_names_case_field_and_points(eight_tri, bad):
    """A load that is NaN or inf somewhere is rejected before the solve,
    which would otherwise return a NaN solution."""
    case = manufactured_case("poisson_sine_2d")
    f2 = case.fields["f2"]
    fields = dict(case.fields,
                  f2=lambda x: np.where(x[:, 0] > 0.75, bad, f2(x)))
    broken = ManufacturedCase("sine_with_holes", 2, case.params, fields)
    disc = Discretization(make_formulation("primal_poisson", 1), eight_tri)
    x = disc._ref_tables.physical_points(np.arange(8)).reshape(-1, 2)
    n = int(np.count_nonzero(x[:, 0] > 0.75))
    assert 0 < n < len(x)
    with pytest.raises(ValueError, match=rf"case 'sine_with_holes': field "
                       rf"'f2' is not finite at {n} of the {len(x)} "):
        disc.assemble(broken)


def test_measure_error_requires_the_derivative_of_a_conforming_field(
        eight_tri):
    """The natural norm of a conforming slot reads its exact family
    derivative; a case without it is rejected, naming the case and the
    field, rather than measured in the L2 part alone."""
    case = manufactured_case("poisson_sine_2d")
    fields = {k: v for k, v in case.fields.items() if k != "grad_u"}
    partial = ManufacturedCase("sine_without_gradient", 2, case.params,
                               fields)
    disc = Discretization(make_formulation("primal_poisson", 1), eight_tri)
    x = disc.solve(*disc.assemble(case))
    with pytest.raises(ValueError, match="case 'sine_without_gradient' has "
                       "no field 'grad_u'"):
        disc.measure_error(x, partial)
    err = disc.measure_error(x, case)["u"]
    assert err["natural"] > 10 * err["l2"]


def test_solve_rejects_a_non_finite_right_hand_side(eight_tri):
    disc = Discretization(make_formulation("primal_poisson", 1), eight_tri)
    A, f = disc.assemble(manufactured_case("poisson_sine_2d"))
    f[np.flatnonzero(~disc.constrained_dofs())[0]] = np.nan
    with pytest.raises(RuntimeError, match="residual nan exceeds 1e-10"):
        disc.solve(A, f)


@pytest.mark.parametrize("fid,case_name,mesh_name", [
    ("maxwell_primal_E", "maxwell_sine_3d", "five_tet"),
    ("ultraweak_dcr", "dcr_sine_2d", "eight_tri"),
])
def test_solve_matches_default_sparse_lu(fid, case_name, mesh_name, request):
    from scipy.sparse.linalg import splu

    mesh = request.getfixturevalue(mesh_name)
    disc = Discretization(make_formulation(fid, 2), mesh)
    A, f = disc.assemble(manufactured_case(case_name))
    assert np.iscomplexobj(A.data) == fid.startswith("maxwell")
    x = disc.solve(A, f)
    free = np.flatnonzero(~disc.constrained_dofs())
    Aff = A[np.ix_(free, free)].tocsc()
    ref = splu(Aff).solve(f[free])
    assert np.linalg.norm(x[free] - ref) <= 1e-10 * np.linalg.norm(ref)
    assert not x[disc.constrained_dofs()].any()
