"""Global sparse sums and load accumulation against their 64-bit and
``np.add.at`` references: the same matrices and vectors bit for bit."""

import numpy as np
import pytest

from dpgfem import spaces, system
from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import build_structured, refine_marked, refine_uniform
from dpgfem.spaces import _accumulate, _block_matrix, _triplets, natural_gram
from dpgfem.system import Discretization
from oracles import coo_sum64


def _setup(name):
    """(Discretization, case): a graded L-shape at p=2 or the complex
    Maxwell ultraweak form on the 40-tet cube."""
    if name == "lshape_p2":
        mesh = build_structured("l-shape", 2)
        mesh = refine_marked(mesh, {0, 5, mesh.ncells - 1})
        return (Discretization(make_formulation("primal_poisson", 2), mesh),
                manufactured_case("poisson_sine_2d"))
    mesh = refine_uniform(build_structured("unit-cube", 1))
    return (Discretization(make_formulation("maxwell_ultraweak", 1), mesh),
            manufactured_case("maxwell_sine_3d"))


def _natural_gram(disc):
    s = disc.form.trial_slots[0]
    return natural_gram(disc._tables[s.name], disc.dofmap(s.name),
                        include_deriv=s.continuity == "conforming")


def _interface(disc):
    return disc.form.interface_slots[-1].name


# every caller of _block_matrix
CALLERS = {
    "condensed": lambda disc: disc._matrix(),
    "natural_gram": _natural_gram,
    "trace_mass": lambda disc: disc._interfaces[_interface(disc)].mass,
    "quotient_gram": lambda disc: disc.interface_quotient_gram(
        _interface(disc)),
}


@pytest.mark.parametrize("caller", sorted(CALLERS))
@pytest.mark.parametrize("setup", ["lshape_p2", "maxwell_cube_40"])
def test_sparse_sums_match_the_64bit_coo_sum(monkeypatch, setup, caller):
    """Each global sum is built from 32-bit index triples and has the
    values, indices and pointers of the sum of 64-bit triples."""
    disc, _ = _setup(setup)
    calls = []

    def record(parts, shape):
        out = _block_matrix(parts, shape)
        calls.append((parts, shape, out))
        return out

    monkeypatch.setattr(spaces, "_block_matrix", record)
    M = CALLERS[caller](disc)
    assert len(calls) == 1 and calls[0][2] is M
    parts, shape, _ = calls[0]
    for p in parts:
        rows, cols, _ = _triplets(*p, shape)
        assert rows.dtype == cols.dtype == np.int32
    ref = coo_sum64(parts, shape)
    assert M.dtype == ref.dtype
    # every sum is real, the condensed Maxwell matrix in its phased form
    assert M.dtype == np.float64
    for attr in ("data", "indices", "indptr"):
        got, want = getattr(M, attr), getattr(ref, attr)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want), attr


def _add_at(idx, vals, n):
    out = np.zeros(n, dtype=vals.dtype)
    np.add.at(out, idx, vals)
    return out


def test_accumulate_matches_add_at():
    """Repeated positions, real and complex values."""
    rng = np.random.default_rng(3)
    idx = rng.integers(0, 50, size=(40, 7))
    vals = rng.standard_normal((40, 7)) + 1j * rng.standard_normal((40, 7))
    for v in (vals.real, vals):
        got = _accumulate(idx, v, 60)
        assert got.dtype == v.dtype
        assert np.array_equal(got, _add_at(idx, v, 60))


@pytest.mark.parametrize("setup", ["lshape_p2", "maxwell_cube_40"])
def test_load_and_trace_rhs_match_add_at(monkeypatch, setup):
    """The assembled load and the facet projection of an interface trace
    equal those summed by np.add.at bit for bit, real and complex."""

    def sums(disc, case):
        slot = disc.form.interface_slots[-1]
        return disc.assemble(case)[1], disc.project_exact(slot, case)

    got = sums(*_setup(setup))
    monkeypatch.setattr(spaces, "_accumulate", _add_at)
    monkeypatch.setattr(system, "_accumulate", _add_at)
    want = sums(*_setup(setup))
    assert np.iscomplexobj(got[0]) == (setup == "maxwell_cube_40")
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        assert np.array_equal(g, w)


def test_estimate_reuses_the_assembled_load(monkeypatch):
    """After assemble, estimate applies the whitened blocks' adjoint once
    (to the residual), not again to the load; changing the returned load
    changes neither the kept one nor the estimate."""
    disc, case = _setup("lshape_p2")
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    before = disc.estimate(x, case)
    st, applied = disc.element_stacks, []
    adjoint_apply = st.adjoint_apply

    def counted(e):
        applied.append(e)
        return adjoint_apply(e)

    monkeypatch.setattr(st, "adjoint_apply", counted)
    f[:] = 0.0
    after = disc.estimate(x, case)
    assert len(applied) == 1
    assert np.array_equal(after.eta_cells, before.eta_cells)
    assert after.orthogonality == before.orthogonality
