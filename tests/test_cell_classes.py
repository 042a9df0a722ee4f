"""Mesh-level element data against the same data computed cell by cell,
and the classes of cells that share it.

Assembly, the estimator, the skeleton Schur complements and the natural
Grams may share work between cells whose geometry and coefficients are
the same.  Each must still give every cell its own matrices: on a
uniform square whose per-cell diffusion differs between congruent
cells, on a seeded jittered mesh where no two cells are alike, and on a
locally refined L-shape, the results match references built one cell at
a time.  Classes are shared where the cells repeat and split where
they do not.  A class is keyed by the metric J^T J and sign det J, so
an L-shape turned by a non-right angle, or mirrored, gives the systems
of the L-shape, and a convection that is not turned with a mesh splits
the classes it would otherwise share.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order

from dpgfem import meshes
from dpgfem.formulations import (
    ManufacturedCase,
    make_formulation,
    manufactured_case,
)
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
    _check_cell_by_cell(Discretization(form, mesh),
                        manufactured_case("dcr_sine_2d"))


def _check_cell_by_cell(disc, case):
    """assemble and estimate against sums of one-cell element systems."""
    mesh = disc.mesh
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


def _turned(mesh, R):
    """The mesh with every vertex mapped by the orthogonal matrix R."""
    return SimplicialMesh(2, mesh.vertices @ R.T, mesh.cells)


def _turned_case(case, R):
    """A load-only case whose fields at R x are the case's at x."""
    fields = {name: (lambda x, f=f: f(x @ R)) for name, f in
              case.fields.items()}
    return ManufacturedCase(case.name, 2, {}, fields, has_exact=False)


def _dof_signs(A, B):
    """Signs d with B = diag(d) A diag(d) when one exists: d_i d_j is the
    sign of B_ij / A_ij, read along a breadth-first tree of A's entries
    above rounding, from d_0 = 1."""
    S = A.multiply(abs(A) > 1e-8 * abs(A).max()).tocsr()
    order, pred = breadth_first_order(S, 0, return_predecessors=True)
    assert len(order) == A.shape[0]
    d = np.ones(A.shape[0])
    for j in order[1:]:
        i = pred[j]
        d[j] = d[i] * np.sign(A[i, j] * B[i, j])
    return d


_ANGLE = 0.3
_TURN = np.array([[np.cos(_ANGLE), -np.sin(_ANGLE)],
                  [np.sin(_ANGLE), np.cos(_ANGLE)]])
# the turned L-shape mirrored in the y axis
_MIRROR = np.diag([-1.0, 1.0]) @ _TURN


@pytest.mark.parametrize("fid,params", [
    ("primal_poisson", {}),
    ("ultraweak_dcr", {"gamma": 0.5}),
    ("ultraweak_dcr", DCR),
], ids=["primal_poisson", "ultraweak_dcr", "ultraweak_dcr_beta"])
@pytest.mark.parametrize("R", [_TURN, _MIRROR], ids=["turned", "mirrored"])
def test_turned_and_mirrored_meshes_give_the_same_systems(fid, params, R):
    """Every family is Piola-mapped, so an L-shape turned by a non-right
    angle, or mirrored, with its convection and load turned alike,
    gives the system of the L-shape: the same, or on a mirror image the
    same up to the signs of some dofs, in assemble, estimate and every
    condensed element system.  The stacks come from the process's table
    once the first mesh has filled it."""
    base = _lshape()
    case = manufactured_case("poisson_sine_2d")
    discs, loads = [], []
    for mesh, Q in ((base, np.eye(2)), (_turned(base, R), R)):
        pr = dict(params)
        if "beta" in pr:
            pr["beta"] = Q @ pr["beta"]
        discs.append(Discretization(
            make_formulation(fid, 2, params=pr), mesh))
        loads.append(_turned_case(case, Q))
    (A0, f0), (A1, f1) = (d.assemble(c) for d, c in zip(discs, loads))
    d = _dof_signs(A0, A1)
    assert np.all(d == 1) or np.linalg.det(R) < 0
    D = sparse.diags(d)
    assert _rel((D @ A1 @ D).toarray(), A0.toarray()) < 1e-12
    assert _rel(d * f1, f0) < 1e-12
    x = _probe(discs[0])
    e0, e1 = (disc.estimate(y, c)
              for disc, y, c in zip(discs, (x, d * x), loads))
    np.testing.assert_allclose(e1.eta_cells, e0.eta_cells, rtol=1e-12)
    for ci in range(base.ncells):
        idx = cell_columns(discs[0], ci)[0]
        (K0, g0), (K1, g1) = (condense(*disc.element_system(ci, c))
                              for disc, c in zip(discs, loads))
        dk = d[idx]
        assert _rel(K1 * dk[:, None] * dk[None, :], K0) < 1e-12
        assert _rel(g1 * dk, g0) < 1e-12


_QUARTER = np.array([[0.0, -1.0], [1.0, 0.0]])


@pytest.mark.parametrize("per_cell", [False, True],
                         ids=["constant", "per_cell"])
def test_convection_splits_turned_cells(per_cell):
    """A square turned by a quarter turn has the metric of the square bit
    for bit, but a convection that is not turned with it meets its cells
    at other angles: J^{-1} beta enters the class key.  Assembled after
    the square, whose stacks fill the process's table, the turned square
    still matches its cells one by one."""
    square = _square()
    turned = _turned(square, _QUARTER)
    for a, b in zip(turned.geometry.metric, square.geometry.metric):
        assert np.array_equal(a, b)
    beta = DCR["beta"]
    if per_cell:
        beta = beta * (1.0 + 0.5 * (np.arange(square.ncells) % 3))[:, None]
    form = make_formulation("ultraweak_dcr", 1, params=dict(DCR, beta=beta))
    Discretization(form, square).element_stacks
    _check_cell_by_cell(Discretization(form, turned),
                        manufactured_case("dcr_sine_2d"))


def test_signed_zeros_share_a_class():
    reps, cls = cell_classes(np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, -1.0]]))
    assert list(reps) == [0, 2] and list(cls) == [0, 0, 1]


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
    reps, cls = geo.shape_classes
    assert mesh.ncells == 2048 and len(reps) == 6
    # each class is named by its first cell, and its cells share the
    # metric of that cell
    assert np.all(np.diff(reps) > 0) and np.all(reps[cls] <= np.arange(2048))
    for value in geo.metric:
        assert np.array_equal(value[reps[cls]], value)
    # a class holds the cells turned by a half turn, of other Jacobians
    assert len(cell_classes(geo.J, geo.absdet)[0]) == 12
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
