"""Mesh-level assembly and estimate against the one-cell element systems.

``assemble`` and ``estimate`` must agree with the sums built from
``element_system(ci, case)`` cell by cell, ``assemble`` in the phased
coordinates D_x of the dofs (``Discretization.dof_phases``), on setups
whose coefficients, cell order and load would expose a mix-up: per-cell
diffusion with convection and reaction, Maxwell with non-default
parameters in economy mode, and a locally refined L-shape at p=2.  The
same results must come out of a Discretization that has already served
other cases, and assemble and estimate of one case evaluate its load
once.
"""

import tracemalloc

import numpy as np
import pytest
from scipy import sparse

from dpgfem import formulations as fm
from dpgfem import system
from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import (
    SimplicialMesh,
    build_structured,
    refine_marked,
    refine_uniform,
)
from dpgfem.system import Discretization, condense
from oracles import cell_columns

DCR = {"beta": np.array([0.3, -0.2]), "gamma": 0.5}
MAXWELL = {"eps": 2.0, "mu": 0.5, "omega": 1.5}


def _setup(name):
    """(formulation, mesh, case) of one named setup."""
    if name in ("primal_dcr", "ultraweak_dcr"):
        mesh = build_structured("unit-square", 2)
        a = 1.0 + 0.25 * np.arange(mesh.ncells)
        form = make_formulation(name, 1, params=dict(DCR, a=a))
        return form, mesh, manufactured_case("dcr_sine_2d")
    if name == "maxwell_primal_E":
        mesh = build_structured("unit-cube", 1)
        form = make_formulation(name, 1, delta=2, params=MAXWELL,
                                mode="economy")
        return form, mesh, manufactured_case("maxwell_sine_3d")
    mesh = build_structured("l-shape", 2)
    mesh = refine_marked(mesh, {0, 5, mesh.ncells - 1})
    form = make_formulation("primal_poisson", 2)
    return form, mesh, manufactured_case("poisson_sine_2d")


SETUPS = ["primal_dcr", "ultraweak_dcr", "maxwell_primal_E",
          "primal_poisson_lshape"]


def _probe(disc, seed=7):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(disc.ndof)
    if disc.form.is_complex:
        x = x + 1j * rng.standard_normal(disc.ndof)
    return x


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("name", SETUPS)
def test_assemble_matches_condensed_element_systems(name):
    form, mesh, case = _setup(name)
    disc = Discretization(form, mesh)
    rows, cols, vals = [], [], []
    f_ref = np.zeros(disc.ndof, dtype=form.dtype)
    for ci in range(mesh.ncells):
        A_K, f_K = condense(*disc.element_system(ci, case))
        idx, _ = cell_columns(disc, ci)
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append(A_K.ravel())
        f_ref[idx] += f_K
    A_ref = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(disc.ndof, disc.ndof)).toarray()
    d = disc.dof_phases
    A, f = disc.assemble(case)
    assert _rel(A.toarray(), d.conj()[:, None] * A_ref * d) < 1e-12
    assert _rel(f, d.conj() * f_ref) < 1e-12


@pytest.mark.parametrize("name", SETUPS)
def test_estimate_matches_element_residuals(name):
    form, mesh, case = _setup(name)
    disc = Discretization(form, mesh)
    x = _probe(disc)
    eta2 = np.zeros(mesh.ncells)
    for ci in range(mesh.ncells):
        G, B, l = disc.element_system(ci, case)
        idx, _ = cell_columns(disc, ci)
        eps = np.linalg.solve(G, l - B @ x[idx])
        eta2[ci] = np.real(np.vdot(eps, G @ eps))
    est = disc.estimate(x, case)
    np.testing.assert_allclose(est.eta_cells, np.sqrt(eta2), rtol=1e-12)


def test_results_do_not_depend_on_earlier_calls(eight_tri):
    """A Discretization that has assembled one case estimates another,
    and the unloaded problem, exactly as a fresh one does."""
    form = make_formulation("primal_poisson", 1)
    case_a = manufactured_case("poisson_sine_2d")
    case_b = manufactured_case("poisson_lshape_singular")

    def fresh():
        return Discretization(form, eight_tri)

    disc = fresh()
    A, f = disc.assemble(case_a)
    x = disc.solve(A, f)
    A0, f0 = fresh().assemble(case_a)
    assert np.array_equal(A.toarray(), A0.toarray())
    assert np.array_equal(f, f0)
    for case in (case_b, None):
        est = disc.estimate(x, case)
        ref = fresh().estimate(x, case)
        assert np.array_equal(est.eta_cells, ref.eta_cells)
        assert est.orthogonality == ref.orthogonality
    assert disc.opnorm() == pytest.approx(fresh().opnorm(), rel=1e-10)


def test_load_is_evaluated_once_per_case(eight_tri, monkeypatch):
    """assemble and estimate of one case object share one evaluation of
    its load; another case object is evaluated anew."""
    calls = []
    load = fm.load_vector

    def counted(form, ctx, case):
        calls.append(case)
        return load(form, ctx, case)

    monkeypatch.setattr(fm, "load_vector", counted)
    disc = Discretization(make_formulation("primal_poisson", 1), eight_tri)
    case = manufactured_case("poisson_sine_2d")
    A, f = disc.assemble(case)
    first = len(calls)
    x = disc.solve(A, f)
    disc.estimate(x, case)
    assert first > 0 and len(calls) == first
    disc.estimate(x, manufactured_case("poisson_sine_2d"))
    assert len(calls) == 2 * first


def test_adjoint_apply_gathers_group_by_group():
    """On the Maxwell form the adjoint of the real whitened blocks is
    taken group by group: applying it to complex values holds far less
    than the class stack W, and gives W[cls]^T z times the column
    factors."""
    mesh = refine_uniform(build_structured("unit-cube", 1))
    disc = Discretization(make_formulation("maxwell_ultraweak", 1), mesh)
    st = disc.element_stacks
    rng = np.random.default_rng(5)
    z = (rng.standard_normal((mesh.ncells, disc.ntest_local))
         + 1j * rng.standard_normal((mesh.ncells, disc.ntest_local)))
    tracemalloc.start()
    try:
        got = st.adjoint_apply(z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert st.W.dtype == np.float64 and peak < st.W.nbytes / 4
    Wh = np.swapaxes(st.W[st.cls], 1, 2)
    want = (Wh @ z[:, :, None])[:, :, 0] * st.facs
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


# -- the process's table of class stacks ---------------------------------


def _counted_evaluations(monkeypatch):
    """The number of classes that ``_evaluate`` is asked for, as a list
    that grows."""
    evaluated = []
    evaluate = Discretization._evaluate

    def counted(disc, group):
        evaluated.append(group.ncells)
        return evaluate(disc, group)

    monkeypatch.setattr(Discretization, "_evaluate", counted)
    return evaluated


def test_an_equal_setup_evaluates_no_class(monkeypatch):
    """An equal formulation, made anew, on an equal mesh, built anew,
    takes every class from the table: the same stacks bit for bit, and
    its own copy of them."""
    evaluated = _counted_evaluations(monkeypatch)
    stacks = []
    for _ in range(2):
        form, mesh, _ = _setup("ultraweak_dcr")
        stacks.append(Discretization(form, mesh).element_stacks)
    first, again = stacks
    assert sum(evaluated) == len(first.reps) > 1
    for name in ("reps", "cls", "Linv", "W"):
        assert np.array_equal(getattr(again, name), getattr(first, name))
    assert not np.shares_memory(again.W, first.W)


def test_another_constant_coefficient_evaluates_every_class(monkeypatch):
    evaluated = _counted_evaluations(monkeypatch)
    mesh = build_structured("l-shape", 2)
    counts = []
    for gamma in (0.5, 0.75):
        form = make_formulation("ultraweak_dcr", 1,
                                params=dict(DCR, gamma=gamma))
        before = sum(evaluated)
        st = Discretization(form, mesh).element_stacks
        counts.append((sum(evaluated) - before, len(st.reps)))
    assert counts[0] == counts[1] and counts[0][0] == counts[0][1]


def test_eviction_keeps_the_table_under_its_bound(monkeypatch):
    """With room for three classes the table drops the oldest, and the
    Discretizations that read them keep their own stacks."""
    mesh = refine_uniform(build_structured("l-shape", 2))
    form = make_formulation("primal_poisson", 2)
    ref = Discretization(form, mesh)
    A_ref = ref.assemble()[0]
    st = ref.element_stacks
    bound = 3 * (st.Linv[0].nbytes + st.W[0].nbytes)
    assert len(st.reps) > 3
    system._STACKS.clear()
    monkeypatch.setattr(system, "_STACK_TABLE_BYTES", bound)
    disc = Discretization(form, mesh)
    assert (disc.assemble()[0] != A_ref).nnz == 0
    assert 0 < system._STACKS.nbytes <= bound
    # a second mesh evicts the rows of the first, which keeps its own
    Discretization(form, build_structured("l-shape", 2)).element_stacks
    assert system._STACKS.nbytes <= bound
    assert (disc.assemble()[0] != A_ref).nnz == 0


def test_mesh_order_moves_a_at_rounding_level(monkeypatch):
    """An L-shape and its copy turned by a quarter turn have the same
    metric classes but other Jacobians, so the stacks of whichever is
    built first serve both: either order gives A to 1e-13."""
    base = build_structured("l-shape", 2)
    base = refine_marked(base, {0, 5, base.ncells - 1})
    quarter = np.array([[0.0, -1.0], [1.0, 0.0]])
    turned = SimplicialMesh(2, base.vertices @ quarter.T, base.cells)
    form = make_formulation("ultraweak_dcr", 2)
    evaluated = _counted_evaluations(monkeypatch)
    built = {}
    for order in ((base, turned), (turned, base)):
        system._STACKS.clear()
        for mesh in order:
            before = sum(evaluated)
            built.setdefault(id(mesh), []).append(
                Discretization(form, mesh).assemble()[0].toarray())
        # the second mesh evaluated no class
        assert sum(evaluated) == before
    for first, second in built.values():
        assert _rel(second, first) <= 1e-13
