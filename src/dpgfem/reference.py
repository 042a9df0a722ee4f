"""Reference-element bases, trace spaces and geometric pullbacks.

Modal bases are orthonormal in L2 of the reference simplex and graded by
order, so a prefix of the basis spans every lower-order space of the same
family.  Conforming bases are built on top of the modal ones by
prescribing canonical traces on vertices, edges and faces; because cells
store ascending vertex ids, one reference construction serves every cell
and neighbouring cells automatically agree on shared traces.

Every basis is canonical: wherever a construction could pick vectors
inside a degenerate eigenspace it instead keeps independent candidates
in a fixed order and orthonormalizes them by the inverse square root of
their Gram, so rounding in the inputs moves the bases only by rounding.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache

import numpy as np
from numpy.linalg import lstsq
from scipy.linalg import cholesky, eigh, solve_triangular

from .meshes import SimplicialMesh
from .polynomials import family_generators, space_dimension
from .quadrature import simplex_rule
from .simplex import (
    REF_VERTICES,
    facet_parametrization,
    local_edges,
    local_facets,
)

_RANK_TOL = 1e-9


def _rank(sv):
    """The numerical rank of descending singular values: the number above
    _RANK_TOL times the largest (or times 1e-30 when that vanishes)."""
    return int((sv > _RANK_TOL * max(sv.max(initial=0.0), 1e-30)).sum())


# -- modal bases ------------------------------------------------------


class ModalBasis:
    """L2-orthonormal basis of a polynomial family on the reference simplex.

    Attributes
    ----------
    family : str
        'h1', 'l2', 'hcurl', 'hdiv' or 'vec'.
    degree, dim : int
    ncomp : int
        1 for scalar families, dim otherwise.
    W : ndarray (nfuncs, ngens)
        Coefficients over the raw monomial generators, which are taken in
        coordinates centred at the simplex centroid: at degree 7 in 3D a
        rounding-level change of their Gram moves W 170 to 300 times less
        there than with monomials centred at a vertex.

    W is folded into the generators' term coefficients once, so a table
    of values or derivatives is one matrix product with the monomials
    at the points (FIAT's design: Kirby, ACM TOMS 30, 2004).
    """

    def __init__(self, family, degree, dim):
        self.family = family
        self.degree = degree
        self.dim = dim
        gens, bounds = family_generators(family, degree, dim)
        self._slices = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
        self._gen_values = gens
        self.ncomp = gens.ncomp
        if family in ("h1", "l2"):
            ders = gens.grad()
        elif family == "hdiv":
            ders = gens.div()
        else:
            ders = gens.curl()
        self._centroid = np.full(dim, 1.0 / (dim + 1))
        self.W = self._orthonormalize(self._gram())
        self.nfuncs = self.W.shape[0]
        expected = space_dimension(family, degree, dim)
        if self.nfuncs != expected:
            raise RuntimeError(
                f"{family} degree {degree} dim {dim}: rank {self.nfuncs}, "
                f"expected {expected}")
        # W folded into the term coefficients, once per basis
        self._folded = {}
        for kind, polys in (("val", gens), ("der", ders)):
            c = polys.coeffs
            self._folded[kind] = (polys, (self.W @ c.reshape(len(c), -1))
                                  .reshape((self.nfuncs,) + c.shape[1:]))
        self._cache = {}

    def _gram(self):
        """L2 Gram of the raw generators."""
        rule = simplex_rule(self.dim, 2 * max(self.degree, 1))
        V = self._gen_values.eval(rule.points - self._centroid)
        M = _integrate(V, V, rule.weights[:, None])
        return 0.5 * (M + M.T)

    def _orthonormalize(self, M):
        """Coefficients of the graded orthonormal basis from the Gram M.

        Each group keeps its independent generators in generator order,
        projects out the earlier groups and is orthonormalized by the
        inverse square root of its Gram; none of these steps picks
        vectors inside an eigenspace, so the basis moves with its inputs
        only by rounding.
        """
        rows = np.zeros((0, M.shape[0]))
        for sl in self._slices:
            P = rows @ M[:, sl]
            R = M[sl, sl] - P.T @ P
            keep = _independent(R, _RANK_TOL * np.diag(M)[sl])
            E = np.eye(M.shape[0])[sl][keep]
            S = _inv_sqrt(R[np.ix_(keep, keep)])
            rows = np.vstack([rows, S @ (E - P[:, keep].T @ rows)])
        # one symmetric correction pass restores orthonormality lost to
        # cancellation in the graded sweep without disturbing prefix spans
        Mon = rows @ M @ rows.T
        L = cholesky(0.5 * (Mon + Mon.T), lower=True)
        return solve_triangular(L, rows, lower=True)

    def _eval(self, kind, points):
        key = (kind, points.tobytes())
        out = self._cache.get(key)
        if out is None:
            polys, coeffs = self._folded[kind]
            out = polys.eval(points - self._centroid, coeffs)
            self._cache[key] = out
        return out

    def values(self, points):
        """Basis values, shape (nfuncs, npts, ncomp)."""
        return self._eval("val", np.asarray(points, dtype=float))

    def derivs(self, points):
        """Family derivative: grad for scalars, div for hdiv, curl for
        hcurl/vec (scalar in 2D).  Shape (nfuncs, npts, k)."""
        return self._eval("der", np.asarray(points, dtype=float))

    @property
    def coeffs(self):
        """The functions over themselves, as ``ConformingBasis.coeffs``."""
        return np.eye(self.nfuncs)

    def dof_entities(self):
        """As ``ConformingBasis.dof_entities``: every function is interior."""
        return [("interior", 0, i) for i in range(self.nfuncs)]


def _integrate(x, y, w):
    """sum_q w_q x_j . conj(y_i), (ny, nx) or per cell (K, ny, nx), of
    (n, nq, c) or (K, n, nq, c) tables and weights w broadcasting
    against y: the point-by-point product, for the reference bases, the
    Fortin and duality spaces and the tests' oracles."""
    yw = y.conj() * w
    yw = yw.reshape(yw.shape[:-2] + (-1,))
    return yw @ np.swapaxes(x.reshape(x.shape[:-2] + (-1,)), -1, -2)


def _independent(G, floor):
    """Columns of a Gram matrix independent of the columns before them.

    Column j is kept when its squared distance from the span of the
    kept columns before it exceeds ``floor[j]``.
    """
    keep = []
    R = G.copy()
    for j in range(G.shape[0]):
        # R holds G with the kept columns eliminated, so R[j, j] is the
        # squared distance (a Cholesky pivot taken in order)
        if R[j, j] > floor[j]:
            keep.append(j)
            R -= np.outer(R[:, j], R[j] / R[j, j])
    return keep


def _inv_sqrt(G):
    """G^{-1/2} of a symmetric positive definite matrix.  Unlike an
    eigenbasis of G it does not depend on how repeated eigenvalues are
    resolved, so the symmetric orthonormalization it gives is canonical."""
    lam, U = eigh(G)
    return (U / np.sqrt(lam)) @ U.T


_MODAL_CACHE = {}


def modal_basis(family, degree, dim):
    key = (family, degree, dim)
    basis = _MODAL_CACHE.get(key)
    if basis is None:
        basis = ModalBasis(family, degree, dim)
        _MODAL_CACHE[key] = basis
    return basis


# -- reference facet frames -------------------------------------------


def facet_points(dim, local_facet, params):
    """Map unit (dim-1)-simplex parameter points onto a reference facet."""
    A, b = facet_parametrization(dim, local_facet)
    return b[None, :] + params @ A.T


@lru_cache(maxsize=None)
def _reference_cell(dim):
    """The reference simplex as a one-cell mesh."""
    return SimplicialMesh(dim, REF_VERTICES[dim], [list(range(dim + 1))])


def facet_outward_normal(dim, local_facet):
    lf = local_facets(dim).index(tuple(local_facet))
    return _reference_cell(dim).geometry.outward_normal(0, lf)


def edge_points(dim, local_edge, s):
    verts = REF_VERTICES[dim]
    a, b = verts[local_edge[0]], verts[local_edge[1]]
    return a[None, :] + np.asarray(s)[:, None] * (b - a)[None, :]


def edge_tangent(dim, local_edge):
    verts = REF_VERTICES[dim]
    return verts[local_edge[1]] - verts[local_edge[0]]


# -- canonical one-dimensional bases ----------------------------------


def legendre01(k, s):
    """Shifted Legendre values, orthonormal on (0,1); shape (k+1, len(s))."""
    s = np.asarray(s, dtype=float)
    x = 2.0 * s - 1.0
    vals = np.empty((k + 1, len(s)))
    vals[0] = 1.0
    if k >= 1:
        vals[1] = x
    for n in range(1, k):
        vals[n + 1] = ((2 * n + 1) * x * vals[n] - n * vals[n - 1]) / (n + 1)
    scale = np.sqrt(2.0 * np.arange(k + 1) + 1.0)
    return vals * scale[:, None]


def _bubble01(k, s):
    """Orthonormal basis of the degree <= k polynomials on (0,1) that
    vanish at both ends, at s; shape (max(k - 1, 0), len(s))."""
    # Legendre coefficients are orthonormal, so the null space of the
    # endpoint evaluations is an orthonormal bubble basis
    ends = legendre01(k, np.array([0.0, 1.0])).T
    return _orthonormal_nullspace(ends) @ legendre01(k, s)


# -- canonical facet (triangle) bases ---------------------------------


def _edge_traces(basis, s, tangential):
    """Values (scalar) or tangential components (vector) of a triangle
    basis at parameters s of every edge, as (3 * len(s), nfuncs)."""
    rows = []
    for edge in local_edges(2):
        vals = basis.values(edge_points(2, edge, s))
        rows.append(vals @ edge_tangent(2, edge) if tangential else vals[:, :, 0])
    return np.concatenate(rows, axis=1).T


def _tri_scalar_bubble(k):
    """Orthonormal basis of degree <= k triangle polynomials vanishing on
    the boundary, as coefficients over the 2D scalar modal basis."""
    s = simplex_rule(1, 2 * k + 2).points[:, 0]
    return _orthonormal_nullspace(_edge_traces(modal_basis("l2", k, 2), s, False))


def _tri_vector_bubble(family2d, k):
    """Orthonormal tangential-bubble basis of a 2D vector family: fields
    with zero tangential component on all three triangle edges."""
    s = simplex_rule(1, 2 * k + 4).points[:, 0]
    return _orthonormal_nullspace(_edge_traces(modal_basis(family2d, k, 2), s, True))


def _orthonormal_nullspace(C):
    """Orthonormal basis of the null space of C, as rows.

    The projections of the coordinate vectors onto null(C) (columns of
    the unique projector) are picked in coordinate order and
    orthonormalized symmetrically.
    """
    _, sv, Vt = np.linalg.svd(C, full_matrices=True)
    null = Vt[_rank(sv):]
    P = null.T @ null
    keep = _independent(P, np.full(len(P), _RANK_TOL))
    return _inv_sqrt(P[np.ix_(keep, keep)]) @ P[keep]


# -- conforming bases -------------------------------------------------


class ConformingBasis:
    """Entity-classified basis spanning the same space as a modal basis.

    ``coeffs`` expresses each conforming function over the modal basis.
    ``entity_dofs`` lists (kind, local_entity_index, count) groups in
    function order; kinds are 'vertex', 'edge', 'facet' and 'interior'.
    """

    def __init__(self, family, degree, dim, coeffs, entity_dofs):
        self.family = family
        self.degree = degree
        self.dim = dim
        self.coeffs = coeffs
        self.entity_dofs = entity_dofs
        self.nfuncs = coeffs.shape[0]
        self.modal = modal_basis(family, degree, dim)

    def values(self, points):
        return np.tensordot(self.coeffs, self.modal.values(points), axes=1)

    def derivs(self, points):
        return np.tensordot(self.coeffs, self.modal.derivs(points), axes=1)

    def dof_entities(self):
        """Expanded per-function (kind, local_index, index_within_entity)."""
        out = []
        for kind, local, count in self.entity_dofs:
            for i in range(count):
                out.append((kind, local, i))
        return out


def _boundary_traces(basis, dim, facet_order):
    """Relevant-trace evaluation of every modal function on every facet.

    Returns (C, rule) with C of shape (neval, nb) stacking, facet by
    facet, the trace values used for conformity: scalar values for h1,
    tangential parameter components for hcurl/vec, outward normal
    components for hdiv.
    """
    rule = simplex_rule(dim - 1, facet_order)
    rows = []
    for lf in local_facets(dim):
        vals = basis.values(facet_points(dim, lf, rule.points))
        if basis.family in ("h1", "l2"):
            rows.append(vals[:, :, 0])
        elif basis.family == "hdiv":
            rows.append(vals @ facet_outward_normal(dim, lf))
        elif basis.family in ("hcurl", "vec"):
            A, _ = facet_parametrization(dim, lf)
            rows.append((vals @ A).reshape(basis.nfuncs, -1))
        else:
            raise ValueError(basis.family)
    return np.concatenate(rows, axis=1).T, rule


def _on_facet(nfacets, fi, vals):
    """Boundary data equal to each row of vals on facet fi and zero on
    the others: (len(vals), nfacets, *vals.shape[1:])."""
    T = np.zeros((len(vals), nfacets) + vals.shape[1:])
    T[:, fi] = vals
    return T


def _lift(C, T):
    """Minimum-L2-norm elements of the modal span with prescribed traces.

    ``C`` stacks the traces of the modal basis as from
    ``_boundary_traces``, ``T`` holds one function's boundary data per
    leading index, in the same facet-major layout.  The modal basis is
    orthonormal, so the least-norm coefficient rows are the least-norm
    functions.
    """
    T = T.reshape(len(T), -1).T
    sol, *_ = lstsq(C, T, rcond=_RANK_TOL)
    resid = np.linalg.norm(C @ sol - T, axis=0)
    if np.any(resid > 1e-8 * np.maximum(np.linalg.norm(T, axis=0), 1.0)):
        raise RuntimeError(
            f"inconsistent trace prescription: residual {resid.max():.2e}")
    return sol.T


def _face_lifts(basis, s, tangential, data):
    """Triangle lifts of 1D edge data: for each edge and each row of
    ``data`` (values at s), the min-norm element of ``basis`` whose trace
    (tangential for vector families) is that row on the edge and zero on
    the other two edges; shape (3, len(data), nfuncs)."""
    T = np.concatenate([_on_facet(3, ei, data) for ei in range(3)])
    lifts = _lift(_edge_traces(basis, s, tangential), T)
    return lifts.reshape(3, len(data), -1)


def _project_scalar(basis, poly_vals, rule):
    """L2 projection onto an orthonormal modal basis from values at the
    points of ``rule`` (exact for polynomials in the span)."""
    return _integrate(poly_vals[None], basis.values(rule.points),
                      rule.weights[:, None])[:, 0]


_CONF_CACHE = {}


def conforming_basis(family, degree, dim):
    """Entity-structured conforming basis for h1, hcurl, vec or hdiv."""
    key = (family, degree, dim)
    basis = _CONF_CACHE.get(key)
    if basis is not None:
        return basis
    if family == "h1":
        basis = _build_h1(degree, dim)
    elif family in ("hcurl", "vec"):
        if dim != 3:
            raise ValueError("conforming tangential families are built in 3D")
        basis = _build_tangential(family, degree)
    elif family == "hdiv":
        basis = _build_hdiv(degree, dim)
    else:
        raise ValueError(f"no conforming construction for family {family!r}")
    _verify_conforming(basis)
    _CONF_CACHE[key] = basis
    return basis


def _verify_conforming(basis):
    expected = space_dimension(basis.family, basis.degree, basis.dim)
    total = sum(c for _, _, c in basis.entity_dofs)
    if total != expected or basis.nfuncs != expected:
        raise RuntimeError(
            f"conforming {basis.family} degree {basis.degree}: "
            f"{basis.nfuncs} functions, expected {expected}")
    G = basis.coeffs @ basis.coeffs.T
    lam = np.linalg.eigvalsh(G)
    if lam.min() <= 1e-10 * lam.max():
        raise RuntimeError("conforming basis is numerically dependent")


def _finish_conforming(family, k, dim, C, head, data, entity):
    """Head rows, the lifts of the boundary data, then the interior: the
    orthonormal null space of all boundary traces."""
    null = _orthonormal_nullspace(C)
    if null.shape[0]:
        entity.append(("interior", 0, null.shape[0]))
    lifts = _lift(C, np.array(data)) if data else np.zeros((0, C.shape[1]))
    return ConformingBasis(family, k, dim, np.vstack([head, lifts, null]),
                           entity)


def _edge_data(dim, le, edge_vals):
    """Boundary data of the functions of one edge; ``edge_vals[w]`` is
    their trace on a facet whose w-th own edge, in the facet's sorted
    vertex order, is le."""
    return sum(_on_facet(dim + 1, fi,
                         edge_vals[list(itertools.combinations(lf, 2)).index(le)])
               for fi, lf in enumerate(local_facets(dim)) if set(le) <= set(lf))


def _build_h1(degree, dim):
    k = degree
    modal = modal_basis("h1", k, dim)
    C, frule = _boundary_traces(modal, dim, 2 * k + 2)
    rule = simplex_rule(dim, 2 * k)
    # vertex functions: barycentric coordinates
    lam_vals = np.concatenate([1.0 - rule.points.sum(axis=1, keepdims=True),
                               rule.points], axis=1).T[:, :, None]
    head = [_project_scalar(modal, lam, rule) for lam in lam_vals]
    entity = [("vertex", v, 1) for v in range(dim + 1)]
    data = []
    # edge functions: the 1D bubbles on an edge, lifted into each face
    nbub = max(k - 1, 0)
    if nbub:
        if dim == 2:
            edge_vals = [_bubble01(k, frule.points[:, 0])]
        else:
            tri = modal_basis("l2", k, 2)
            s = simplex_rule(1, 2 * k + 2).points[:, 0]
            lifts = _face_lifts(tri, s, False, _bubble01(k, s))
            edge_vals = lifts @ tri.values(frule.points)[:, :, 0]
        for le_index, le in enumerate(local_edges(dim)):
            data.extend(_edge_data(dim, le, edge_vals))
            entity.append(("edge", le_index, nbub))
    # face functions (3D)
    if dim == 3:
        tri = modal_basis("l2", k, 2)
        bvals = _tri_scalar_bubble(k) @ tri.values(frule.points)[:, :, 0]
        for lf_index in range(4 if len(bvals) else 0):
            data.extend(_on_facet(4, lf_index, bvals))
            entity.append(("facet", lf_index, len(bvals)))
    return _finish_conforming("h1", k, dim, C, head, data, entity)


def _build_tangential(family, degree):
    """Conforming H(curl)-type basis on the tetrahedron.

    family 'hcurl' is the Nedelec space N_degree, family 'vec' the full
    vector polynomial space P_degree^3; both glue through tangential
    traces.
    """
    k = degree
    modal = modal_basis(family, k, 3)
    m_edge = k if family == "hcurl" else k + 1
    C, frule = _boundary_traces(modal, 3, 2 * k + 4)
    tri = modal_basis(family, k, 2)
    tri_vals = tri.values(frule.points)  # (nf2d, nq, 2)
    data, entity = [], []
    # edge functions: Legendre tangential data lifted into each face
    s = simplex_rule(1, 2 * k + 4).points[:, 0]
    lifts = _face_lifts(tri, s, True, legendre01(m_edge - 1, s))
    edge_vals = np.tensordot(lifts, tri_vals, axes=1)
    for le_index, le in enumerate(local_edges(3)):
        data.extend(_edge_data(3, le, edge_vals))
        entity.append(("edge", le_index, m_edge))
    # face functions
    bvals = np.tensordot(_tri_vector_bubble(family, k), tri_vals, axes=1)
    for lf_index in range(4 if len(bvals) else 0):
        data.extend(_on_facet(4, lf_index, bvals))
        entity.append(("facet", lf_index, len(bvals)))
    return _finish_conforming(family, k, 3, C, np.zeros((0, modal.nfuncs)),
                              data, entity)


def _build_hdiv(degree, dim):
    k = degree
    modal = modal_basis("hdiv", k, dim)
    C, frule = _boundary_traces(modal, dim, 2 * k + 2)
    tr = modal_basis("l2", k - 1, dim - 1)
    tvals = tr.values(frule.points)[:, :, 0]
    data, entity = [], []
    for lf_index in range(dim + 1):
        data.extend(_on_facet(dim + 1, lf_index, tvals))
        entity.append(("facet", lf_index, tr.nfuncs))
    return _finish_conforming("hdiv", k, dim, C, np.zeros((0, modal.nfuncs)),
                              data, entity)


# -- pushforwards -----------------------------------------------------


def _times(tab, M):
    """An (nf, nq, c) table times M (..., c, d) on its last axis, one
    matrix product per cell: (..., nf, nq, d)."""
    out = tab.reshape(-1, tab.shape[-1]) @ M
    return out.reshape(M.shape[:-2] + tab.shape[:-1] + M.shape[-1:])


def value_factor(family, J, Jinv, det):
    """The per-cell matrix M (..., c, d) that pushes reference basis
    values to a physical cell, values @ M, given one map or a stack of
    (K, d, d) maps and (K,) determinants.

    h1 composes (M = 1, the same on every cell), l2 scales by 1/det,
    hcurl/vec map covariantly (Jinv) and hdiv contravariantly (J^T/det).
    """
    if family == "h1":
        return np.ones((1, 1))
    if family == "l2":
        return (1.0 / np.asarray(det))[..., None, None]
    if family in ("hcurl", "vec"):
        return Jinv
    if family == "hdiv":
        return np.swapaxes(J, -1, -2) / np.asarray(det)[..., None, None]
    raise ValueError(family)


def deriv_factor(family, J, Jinv, det):
    """The matrix that pushes family derivatives: grad covariantly, div
    and 2D curl by 1/det, 3D curl contravariantly."""
    if family in ("h1", "l2"):
        return Jinv
    if family == "hdiv" or (family in ("hcurl", "vec") and J.shape[-1] == 2):
        return (1.0 / np.asarray(det))[..., None, None]
    if family in ("hcurl", "vec"):
        return np.swapaxes(J, -1, -2) / np.asarray(det)[..., None, None]
    raise ValueError(family)


def trace_factor(kind, n):
    """The matrix M (..., c, r) with trace = values @ M, for values on a
    facet with unit normal n (..., d), one matrix per normal: 'value' of
    a scalar (M = 1), 'normal' (v.n), 'tangential' (v - (v.n)n) or, in
    3D, 'rotated' (n x v)."""
    n = np.asarray(n)
    if kind == "value":
        return np.ones(n.shape[:-1] + (1, 1))
    if kind == "normal":
        return n[..., :, None]
    if kind == "tangential":
        return np.eye(n.shape[-1]) - n[..., :, None] * n[..., None, :]
    if kind == "rotated":
        # row d is n x e_d
        return np.cross(n[..., None, :], np.eye(3))
    raise ValueError(f"unknown trace kind {kind!r}")


def push_values(family, vals, J, Jinv, det):
    """Push reference basis values to a physical cell, or to a stack of
    cells (see value_factor).  h1 values are the same on every cell and
    keep their reference shape."""
    return _times(vals, value_factor(family, J, Jinv, det))


def push_derivs(family, der, J, Jinv, det):
    """Push family derivatives to a physical cell or a stack of cells
    (see deriv_factor)."""
    return _times(der, deriv_factor(family, J, Jinv, det))


# -- reference tensors -------------------------------------------------
#
# On an affine cell every pushed table is a reference table times a
# per-cell factor, x = X @ F, so a weighted product of two tables is a
# contraction of per-cell factors with one reference tensor,
#
#   sum_q w_q x_j,q . conj(y_i,q) = |det| sum_{r,s} (F_x conj(F_y)^T)_rs
#                                   T[r, s, i, j],
#   T[r, s, i, j] = sum_q w^_q X_j,q,r Y_i,q,s.

RefOperand = namedtuple("RefOperand", "basis kind facet order funcs",
                        defaults=(None,))
RefOperand.__doc__ = """One reference table: the values ('val') or family
derivatives ('der') of a basis at the points of the degree-``order``
rule on its simplex, or (facet = local facet index) its values at the
points of the degree-``order`` rule on that facet; of the functions
``funcs`` (a tuple of indices), or of all when None."""


_TABLE_CACHE = {}
_TENSOR_CACHE = {}


def reference_table(op):
    """(table (n, nq, c), rule weights (nq,)) of a reference operand,
    tabulated on first use and kept for the process."""
    out = _TABLE_CACHE.get(op)
    if out is None:
        dim = op.basis.dim
        if op.facet is None:
            rule = simplex_rule(dim, op.order)
            pts = rule.points
        else:
            rule = simplex_rule(dim - 1, op.order)
            pts = facet_points(dim, local_facets(dim)[op.facet], rule.points)
        tab = (op.basis.derivs(pts) if op.kind == "der"
               else op.basis.values(pts))
        if op.funcs is not None:
            tab = tab[list(op.funcs)]
        tab.flags.writeable = False
        out = _TABLE_CACHE[op] = (tab, rule.weights)
    return out


def reference_tensor(x, y):
    """T (r, s, ny, nx) with T[r, s, i, j] = sum_q w_q X_j,q,r Y_i,q,s
    for reference operands x and y on the same rule, built on first use
    and kept for the process."""
    key = (x, y)
    T = _TENSOR_CACHE.get(key)
    if T is None:
        X, w = reference_table(x)
        Y, _ = reference_table(y)
        nx, nq, r = X.shape
        ny, _, s = Y.shape
        Yw = np.transpose(Y * w[:, None], (2, 0, 1)).reshape(s * ny, nq)
        Xq = np.transpose(X, (1, 2, 0)).reshape(nq, r * nx)
        T = (Yw @ Xq).reshape(s, ny, r, nx).transpose(2, 0, 1, 3).copy()
        T.flags.writeable = False
        _TENSOR_CACHE[key] = T
    return T


def _contract(pairs, scale):
    """sum_q w_q x_j . y_i per cell as a real (K, ny, nx) stack, summed
    in order over pairs (x, y) of (reference operand, real factor)
    terms, with weights scale (K,) times the reference rule's: each pair
    adds C @ T, C = scale F_x F_y^T and T their reference tensor."""
    out = 0.0
    for (xr, Fx), (yr, Fy) in pairs:
        T = reference_tensor(xr, yr)
        r, s, ny, nx = T.shape
        C = scale[:, None, None] * (Fx @ np.swapaxes(Fy, -1, -2))
        # unnamed, so that each pair's product is freed once it is added
        out += (C.reshape(-1, r * s) @ T.reshape(r * s, -1)).reshape(
            -1, ny, nx)
    return out


def _moments(values, term, scale):
    """sum_q w_q v_q . conj(x_i,q) per cell, (K, n), of data v (K, nq, d)
    at the physical points of a rule and a (reference operand, real
    factor) term x, with weights scale (K,) times the rule's: the data,
    pulled back by the factor, are summed against the reference table."""
    ref, F = term
    X, w = reference_table(ref)
    g = values @ np.swapaxes(F, -1, -2)
    g = g * (scale[:, None, None] * w[:, None])
    return g.reshape(len(g), -1) @ X.reshape(len(X), -1).T
