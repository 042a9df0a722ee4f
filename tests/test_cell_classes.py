"""Mesh-level element data against the same data computed cell by cell,
and the classes of cells that share it.

Assembly, the estimator, the skeleton Schur complements and the natural
Grams may share work between cells whose geometry and coefficients are
the same.  Each must still give every cell its own matrices: on a
uniform square whose per-cell diffusion differs between congruent
cells, on a seeded jittered mesh where no two cells are alike, and on a
locally refined L-shape, the results match references built one cell at
a time.  Classes are shared where the cells repeat and split where
they do not.
"""

import numpy as np
import pytest
from scipy import sparse

from dpgfem import meshes
from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import (
    SimplicialMesh,
    build_structured,
    cell_classes,
    refine_marked,
    refine_uniform,
)
from dpgfem.reference import _contract, conforming_basis
from dpgfem.spaces import (
    ElementTables,
    conforming_map,
    natural_gram,
    skeleton_schur,
)
from dpgfem.system import Discretization, condense
from oracles import cell_columns

DCR = {"beta": np.array([0.3, -0.2]), "gamma": 0.5}


def _square():
    return build_structured("unit-square", 8)


def _jittered(seed=11):
    """The 8x8 square with every interior vertex moved at random."""
    base = build_structured("unit-square", 8)
    rng = np.random.default_rng(seed)
    v = base.vertices.copy()
    inner = np.all((v > 0) & (v < 1), axis=1)
    v[inner] += rng.uniform(-0.03, 0.03, size=(inner.sum(), 2))
    return SimplicialMesh(2, v, base.cells)


def _lshape():
    mesh = build_structured("l-shape", 4)
    return refine_marked(mesh, {0, 7, 13, mesh.ncells - 1})


MESHES = {"square": _square, "jittered": _jittered, "lshape": _lshape}


def _rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _probe(disc, seed=5):
    return np.random.default_rng(seed).standard_normal(disc.ndof)


@pytest.mark.parametrize("fid", ["primal_dcr", "ultraweak_dcr"])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_assemble_and_estimate_match_cell_by_cell(mesh_name, fid):
    mesh = MESHES[mesh_name]()
    # congruent neighbours get different diffusion coefficients
    a = 1.0 + 0.25 * (np.arange(mesh.ncells) % 4)
    form = make_formulation(fid, 1, params=dict(DCR, a=a))
    case = manufactured_case("dcr_sine_2d")
    disc = Discretization(form, mesh)
    x = _probe(disc)
    A_ref = np.zeros((disc.ndof, disc.ndof))
    f_ref = np.zeros(disc.ndof)
    f_abs = np.zeros(disc.ndof)
    eta2 = np.zeros(mesh.ncells)
    for ci in range(mesh.ncells):
        G, B, l = disc.element_system(ci, case)
        idx, _ = cell_columns(disc, ci)
        A_K, f_K = condense(G, B, l)
        A_ref[np.ix_(idx, idx)] += A_K
        f_ref[idx] += f_K
        f_abs[idx] += np.abs(f_K)
        eps = np.linalg.solve(G, l - B @ x[idx])
        eta2[ci] = eps @ G @ eps
    A, f = disc.assemble(case)
    assert _rel(A.toarray(), A_ref) < 1e-12
    # The cell loads cancel in the sum, so they set the scale.  The
    # ultraweak graph Grams reach condition numbers near 2e7 on the
    # jittered mesh, where the one-cell kernels and the batched ones round
    # apart by up to 4e-12 of that scale whatever the cells share.
    assert np.max(np.abs(f - f_ref)) < 1e-11 * np.max(f_abs)
    est = disc.estimate(x, case)
    np.testing.assert_allclose(est.eta_cells, np.sqrt(eta2), rtol=1e-12)


def _cell_gram(tables, ci, include_deriv=True):
    """Graph Gram of all basis functions on one cell."""
    one = slice(ci, ci + 1)
    M = 0.0
    for kind in ("val", "der")[:1 + include_deriv]:
        x = (tables.reference(kind), tables.factor(kind, one))
        M = M + _contract([(x, x)], tables.geo.absdet[one])
    return M[0]


def _space(mesh, family, degree, skeleton):
    basis = conforming_basis(family, degree, mesh.dim)
    tables = ElementTables(mesh, basis, 2 * degree + 4)
    return tables, conforming_map(mesh, basis, skeleton=skeleton)


@pytest.mark.parametrize("family,degree", [("h1", 2), ("hdiv", 2)])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_skeleton_schur_matches_cell_by_cell(mesh_name, family, degree):
    mesh = MESHES[mesh_name]()
    tables, skel = _space(mesh, family, degree, True)
    use = list(skel.local_functions)
    inner = [k for k in range(tables.basis.nfuncs) if k not in use]
    ref = np.empty((mesh.ncells, len(use), len(use)))
    for ci in range(mesh.ncells):
        M = _cell_gram(tables, ci)
        S = M[np.ix_(use, use)]
        if inner:
            Mis = M[np.ix_(inner, use)]
            S = S - Mis.T @ np.linalg.solve(M[np.ix_(inner, inner)], Mis)
        f = skel.cell_factors[ci]
        ref[ci] = S * f[:, None] * f[None, :]
    # one block per shape class, in local coefficients
    S = skeleton_schur(tables, use)
    reps, cls = mesh.geometry.shape_classes
    assert len(S) == len(reps)
    f = skel.cell_factors
    assert _rel(S[cls] * f[:, :, None] * f[:, None, :], ref) < 1e-12


@pytest.mark.parametrize("family,degree,skeleton",
                         [("h1", 2, False), ("hdiv", 1, False),
                          ("h1", 3, True)])
@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_natural_gram_matches_cell_by_cell(mesh_name, family, degree,
                                           skeleton):
    mesh = MESHES[mesh_name]()
    tables, dmap = _space(mesh, family, degree, skeleton)
    use = (slice(None) if dmap.local_functions is None
           else list(dmap.local_functions))
    rows, cols, vals = [], [], []
    for ci in range(mesh.ncells):
        M = _cell_gram(tables, ci)[use][:, use]
        f, idx = dmap.cell_factors[ci], dmap.cell_dofs[ci]
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append((M * f[:, None] * f[None, :]).ravel())
    ref = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dmap.ndofs, dmap.ndofs)).toarray()
    assert _rel(natural_gram(tables, dmap).toarray(), ref) < 1e-12


def test_uniform_square_shares_a_few_classes():
    mesh = build_structured("unit-square", 2)
    while mesh.ncells < 2048:
        mesh = refine_uniform(mesh)
    geo = mesh.geometry
    reps, cls = cell_classes(geo.J, geo.absdet)
    assert mesh.ncells == 2048 and len(reps) <= 12
    # each class is named by its first cell, and its cells share the
    # Jacobian of that cell
    assert np.all(np.diff(reps) > 0) and np.all(reps[cls] <= np.arange(2048))
    assert np.array_equal(geo.J[reps[cls]], geo.J)
    disc = Discretization(make_formulation("ultraweak_dcr", 1), mesh)
    assert len(disc.element_stacks.reps) == len(reps)


def test_per_cell_coefficients_split_classes():
    mesh = _square()
    a = 1.0 + 0.25 * (np.arange(mesh.ncells) % 4)
    geo = mesh.geometry
    shapes = len(cell_classes(geo.J, geo.absdet)[0])
    disc = Discretization(
        make_formulation("primal_dcr", 1, params=dict(DCR, a=a)), mesh)
    st = disc.element_stacks
    assert np.all(a[st.reps[st.cls]] == a)
    assert len(st.reps) > shapes


def test_jittered_mesh_has_one_class_per_cell():
    mesh = _jittered()
    geo = mesh.geometry
    assert len(cell_classes(geo.J, geo.absdet)[0]) == mesh.ncells
    disc = Discretization(make_formulation("primal_poisson", 1), mesh)
    assert np.array_equal(disc.element_stacks.cls, np.arange(mesh.ncells))


def test_one_geometry_per_mesh(monkeypatch):
    """Every layer built on a mesh reads the mesh's one geometry, and its
    shape classes are computed once, however many Grams use them."""
    built, classified = [], []

    class Counted(meshes.MeshGeometry):
        def __init__(self, mesh):
            built.append(mesh)
            super().__init__(mesh)

    def counted(*values):
        classified.append(len(values))
        return cell_classes(*values)

    base = _lshape()
    monkeypatch.setattr(meshes, "MeshGeometry", Counted)
    monkeypatch.setattr(meshes, "cell_classes", counted)
    mesh = SimplicialMesh(2, base.vertices, base.cells)
    geo = mesh.geometry
    discs = [Discretization(make_formulation(fid, 1), mesh)
             for fid in ("ultraweak_dcr", "primal_dcr")]
    space = discs[0]._interfaces["uhat"]
    tables, dmap = _space(mesh, "h1", 2, False)
    natural_gram(tables, dmap)
    assert len(space.cell_grams) == len(geo.shape_classes[0])
    assert built == [mesh] and classified == [2]
    assert tables.geo is geo and space.tables.geo is geo
    assert space.parent.tables.geo is geo
    assert all(t.geo is geo for d in discs for t in d._tables.values())
    assert geo.shape_classes is mesh.geometry.shape_classes
