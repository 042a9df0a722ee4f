"""Reference-element bases, trace spaces and geometric pullbacks.

Modal bases are orthonormal in L2 of the reference simplex and graded by
order, so a prefix of the basis spans every lower-order space of the same
family.  Conforming bases are built on top of the modal ones by
prescribing canonical traces on vertices, edges and faces; because cells
store ascending vertex ids, one reference construction serves every cell
and neighbouring cells automatically agree on shared traces.
"""

from __future__ import annotations

import numpy as np
from numpy.linalg import lstsq
from scipy.linalg import cholesky, eigh, solve_triangular

from .polynomials import CompiledPolys, family_generator_groups, space_dimension
from .quadrature import reference_volume, simplex_rule
from .simplex import (
    REF_VERTICES,
    facet_measure,
    facet_parametrization,
    local_edges,
    local_facets,
)

_RANK_TOL = 1e-9


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
        Coefficients over the raw monomial generators.
    """

    def __init__(self, family, degree, dim):
        self.family = family
        self.degree = degree
        self.dim = dim
        groups = family_generator_groups(family, degree, dim)
        gens = [g for group in groups for g in group]
        slices = []
        start = 0
        for group in groups:
            slices.append(slice(start, start + len(group)))
            start += len(group)
        self._gen_values = CompiledPolys(gens)
        self.ncomp = self._gen_values.ncomp
        if family in ("h1", "l2"):
            self._gen_deriv = CompiledPolys([g.grad() for g in gens])
        elif family == "hdiv":
            self._gen_deriv = CompiledPolys([g.div() for g in gens])
        elif family == "hcurl":
            if dim == 3:
                self._gen_deriv = CompiledPolys([g.curl3d() for g in gens])
            else:
                self._gen_deriv = CompiledPolys([g.rot2d() for g in gens])
        elif family == "vec":
            if dim == 3:
                self._gen_deriv = CompiledPolys([g.curl3d() for g in gens])
            else:
                self._gen_deriv = CompiledPolys([g.rot2d() for g in gens])
        else:
            raise ValueError(f"unknown family {family!r}")
        self.W = self._orthonormalize(slices)
        self.nfuncs = self.W.shape[0]
        expected = space_dimension(family, degree, dim)
        if self.nfuncs != expected:
            raise RuntimeError(
                f"{family} degree {degree} dim {dim}: rank {self.nfuncs}, "
                f"expected {expected}")
        self._cache = {}

    def _orthonormalize(self, slices):
        rule = simplex_rule(self.dim, 2 * max(self.degree, 1))
        V = self._gen_values.eval(rule.points)
        M = np.einsum("ipc,jpc,p->ij", V, V, rule.weights)
        rows = []
        for sl in slices:
            Mgg = M[sl, sl]
            have_prev = bool(rows)
            if have_prev:
                B = np.array(rows)
                P = B @ M[:, sl]
                R = Mgg - P.T @ P
            else:
                R = Mgg.copy()
            lam, U = eigh(R)
            keep = lam > _RANK_TOL * max(lam.max(), 1e-30)
            for i in np.flatnonzero(keep):
                coeff = np.zeros(M.shape[0])
                coeff[sl] = U[:, i]
                if have_prev:
                    coeff -= (U[:, i] @ P.T) @ B
                rows.append(coeff / np.sqrt(lam[i]))
        W = np.array(rows)
        # one symmetric correction pass restores orthonormality lost to
        # cancellation in the graded sweep without disturbing prefix spans
        Mon = W @ M @ W.T
        L = cholesky(Mon, lower=True)
        return solve_triangular(L, W, lower=True)

    def _eval(self, compiled, points):
        key = (id(compiled), points.tobytes())
        out = self._cache.get(key)
        if out is None:
            out = np.einsum("fg,gpc->fpc", self.W, compiled.eval(points))
            self._cache[key] = out
        return out

    def values(self, points):
        """Basis values, shape (nfuncs, npts, ncomp)."""
        return self._eval(self._gen_values, np.asarray(points, dtype=float))

    def derivs(self, points):
        """Family derivative: grad for scalars, div for hdiv, curl for
        hcurl/vec (scalar in 2D).  Shape (nfuncs, npts, k)."""
        return self._eval(self._gen_deriv, np.asarray(points, dtype=float))


_MODAL_CACHE = {}


def modal_basis(family, degree, dim):
    key = (family, degree, dim)
    basis = _MODAL_CACHE.get(key)
    if basis is None:
        basis = ModalBasis(family, degree, dim)
        _MODAL_CACHE[key] = basis
    return basis


def reference_basis(family, degree, dim):
    """Public accessor for the modal reference basis (broken spaces)."""
    if family not in ("h1", "l2", "hcurl", "hdiv", "vec"):
        raise ValueError(f"unknown family {family!r}")
    if family in ("hcurl", "hdiv") and degree < 1:
        raise ValueError("degree must be >= 1 for hcurl/hdiv")
    if degree < 0:
        raise ValueError("degree must be nonnegative")
    return modal_basis(family, degree, dim)


# -- reference facet frames -------------------------------------------


def facet_points(dim, local_facet, params):
    """Map unit (dim-1)-simplex parameter points onto a reference facet."""
    A, b = facet_parametrization(dim, local_facet)
    return b[None, :] + params @ A.T


def facet_outward_normal(dim, local_facet):
    verts = REF_VERTICES[dim]
    fverts = verts[list(local_facet)]
    opp = [i for i in range(dim + 1) if i not in local_facet][0]
    if dim == 2:
        t = fverts[1] - fverts[0]
        n = np.array([t[1], -t[0]])
    else:
        n = np.cross(fverts[1] - fverts[0], fverts[2] - fverts[0])
    n = n / np.linalg.norm(n)
    if np.dot(n, fverts.mean(axis=0) - verts[opp]) < 0:
        n = -n
    return n


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


class _Canonical1D:
    """Canonical polynomial bases on the unit interval.

    ``full(m)`` returns an evaluator for the orthonormal Legendre basis of
    degree < m; ``bubble(k)`` for an orthonormal basis of degree <= k
    polynomials vanishing at both endpoints.
    """

    def __init__(self):
        self._bubbles = {}

    def full(self, m):
        return lambda s: legendre01(m - 1, s)

    def bubble(self, k):
        coeff = self._bubbles.get(k)
        if coeff is None:
            if k < 2:
                coeff = np.zeros((0, k + 1))
            else:
                rule = simplex_rule(1, 2 * k + 2)
                s = rule.points[:, 0]
                full = legendre01(k, s)
                ends = legendre01(k, np.array([0.0, 1.0]))
                # null space of endpoint evaluation
                _, sv, Vt = np.linalg.svd(ends.T, full_matrices=True)
                null = Vt[2:]
                vals = null @ full
                G = np.einsum("ip,jp,p->ij", vals, vals, rule.weights)
                lam, U = eigh(G)
                coeff = (U / np.sqrt(lam)).T @ null
            self._bubbles[k] = coeff
        return lambda s: coeff @ legendre01(k, s)


_CANON1D = _Canonical1D()


# -- canonical facet (triangle) bases ---------------------------------


def _tri_scalar_bubble(k):
    """Orthonormal basis of degree <= k triangle polynomials vanishing on
    the boundary, as coefficients over the 2D scalar modal basis."""
    basis = modal_basis("l2", k, 2)
    rows = []
    rule1 = simplex_rule(1, 2 * k + 2)
    s = rule1.points[:, 0]
    for edge in local_edges(2):
        pts = edge_points(2, edge, s)
        rows.append(basis.values(pts)[:, :, 0])
    C = np.concatenate(rows, axis=1).T  # (neval, nb)
    return _orthonormal_nullspace(C, np.eye(basis.nfuncs))


def _tri_vector_bubble(family2d, k):
    """Orthonormal tangential-bubble basis of a 2D vector family: fields
    with zero tangential component on all three triangle edges."""
    basis = modal_basis(family2d, k, 2)
    rule1 = simplex_rule(1, 2 * k + 4)
    s = rule1.points[:, 0]
    rows = []
    for edge in local_edges(2):
        pts = edge_points(2, edge, s)
        t = edge_tangent(2, edge)
        vals = basis.values(pts)
        rows.append(np.einsum("fpc,c->fp", vals, t))
    C = np.concatenate(rows, axis=1).T
    return _orthonormal_nullspace(C, np.eye(basis.nfuncs))


def _orthonormal_nullspace(C, gram):
    """Orthonormal (wrt gram) basis of the null space of C."""
    if C.shape[0] == 0:
        null = np.eye(C.shape[1])
    else:
        _, sv, Vt = np.linalg.svd(C, full_matrices=True)
        rank = int((sv > _RANK_TOL * max(sv[0], 1e-30)).sum()) if len(sv) else 0
        null = Vt[rank:]
    if null.shape[0] == 0:
        return null
    G = null @ gram @ null.T
    lam, U = eigh(G)
    return (U / np.sqrt(lam)).T @ null


# -- conforming bases -------------------------------------------------


class ConformingBasis:
    """Entity-classified basis spanning the same space as a modal basis.

    ``coeffs`` expresses each conforming function over the modal basis.
    ``entity_dofs`` lists (kind, local_entity_index, count) groups in
    function order; kinds are 'vertex', 'edge', 'face' and 'interior'.
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
        return np.einsum("cm,mpk->cpk", self.coeffs, self.modal.values(points))

    def derivs(self, points):
        return np.einsum("cm,mpk->cpk", self.coeffs, self.modal.derivs(points))

    def dof_entities(self):
        """Expanded per-function (kind, local_index, index_within_entity)."""
        out = []
        for kind, local, count in self.entity_dofs:
            for i in range(count):
                out.append((kind, local, i))
        return out


def _boundary_trace_rows(basis, dim, facet_order):
    """Per-facet relevant-trace evaluation of every modal function.

    Returns (rows_per_facet, meta) where each entry is an array
    (nb, neval) stacking the trace values used for conformity: scalar
    values for h1, tangential parameter components for hcurl/vec, outward
    normal components for hdiv.
    """
    rule = simplex_rule(dim - 1, facet_order)
    rows = []
    for lf in local_facets(dim):
        pts = facet_points(dim, lf, rule.points)
        vals = basis.values(pts)
        if basis.family in ("h1", "l2"):
            rows.append(vals[:, :, 0])
        elif basis.family == "hdiv":
            n = facet_outward_normal(dim, lf)
            rows.append(np.einsum("fpc,c->fp", vals, n))
        elif basis.family in ("hcurl", "vec"):
            A, _ = facet_parametrization(dim, lf)
            tang = np.einsum("fpc,ck->fpk", vals, A)
            rows.append(tang.reshape(basis.nfuncs, -1))
        else:
            raise ValueError(basis.family)
    return rows, rule


def _lift(modal_rowblocks, targets):
    """Minimum-L2-norm element of the modal span matching boundary data.

    ``modal_rowblocks`` are the per-facet trace arrays of the modal basis,
    ``targets`` the prescribed values per facet (same shapes minus the
    function axis).  The modal basis is orthonormal, so the least-norm
    coefficient vector is the least-norm function.
    """
    C = np.concatenate(modal_rowblocks, axis=1).T
    t = np.concatenate([np.ravel(x) for x in targets])
    sol, *_ = lstsq(C, t, rcond=None)
    resid = np.linalg.norm(C @ sol - t)
    scale = max(np.linalg.norm(t), 1.0)
    if resid > 1e-8 * scale:
        raise RuntimeError(f"inconsistent trace prescription: residual {resid:.2e}")
    return sol


def _face_scalar_lift(k, which_edge, edge_fn_index):
    """Triangle lift of a 1D edge bubble: degree <= k scalar with the
    given bubble on one edge and zero on the other two (min norm)."""
    basis = modal_basis("l2", k, 2)
    rule1 = simplex_rule(1, 2 * k + 2)
    s = rule1.points[:, 0]
    blocks = []
    targets = []
    bub = _CANON1D.bubble(k)(s)
    for ei, edge in enumerate(local_edges(2)):
        pts = edge_points(2, edge, s)
        blocks.append(basis.values(pts)[:, :, 0])
        if ei == which_edge:
            targets.append(bub[edge_fn_index])
        else:
            targets.append(np.zeros(len(s)))
    return _lift(blocks, targets)


def _face_tangential_lift(family2d, k, m_edge, which_edge, edge_fn_index):
    """Triangle vector lift: tangential component equal to a Legendre
    polynomial on one edge, zero on the others (min norm)."""
    basis = modal_basis(family2d, k, 2)
    rule1 = simplex_rule(1, 2 * k + 4)
    s = rule1.points[:, 0]
    leg = _CANON1D.full(m_edge)(s)
    blocks = []
    targets = []
    for ei, edge in enumerate(local_edges(2)):
        pts = edge_points(2, edge, s)
        t = edge_tangent(2, edge)
        blocks.append(np.einsum("fpc,c->fp", basis.values(pts), t))
        if ei == which_edge:
            targets.append(leg[edge_fn_index])
        else:
            targets.append(np.zeros(len(s)))
    return _lift(blocks, targets)


def _project_scalar(basis, poly_vals, rule):
    """L2 projection onto an orthonormal modal basis from values at the
    points of ``rule`` (exact for polynomials in the span)."""
    V = basis.values(rule.points)
    return np.einsum("fpc,pc,p->f", V, poly_vals, rule.weights)


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


def _build_h1(degree, dim):
    k = degree
    modal = modal_basis("h1", k, dim)
    facet_order = 2 * k + 2
    trace_rows, frule = _boundary_trace_rows(modal, dim, facet_order)
    rule = simplex_rule(dim, 2 * k)
    rows = []
    entity = []
    # vertex functions: barycentric coordinates
    verts = REF_VERTICES[dim]
    lam_vals = np.ones((dim + 1, rule.npoints, 1))
    lam_vals[0, :, 0] = 1.0 - rule.points.sum(axis=1)
    for i in range(dim):
        lam_vals[i + 1, :, 0] = rule.points[:, i]
    for v in range(dim + 1):
        rows.append(_project_scalar(modal, lam_vals[v], rule))
        entity.append(("vertex", v, 1))
    # edge functions
    nbub = max(k - 1, 0)
    s1 = frule.points[:, 0] if dim == 2 else simplex_rule(1, 2 * k + 2).points[:, 0]
    for le_index, le in enumerate(local_edges(dim)):
        if nbub == 0:
            break
        for j in range(nbub):
            if dim == 2:
                targets = []
                bub = _CANON1D.bubble(k)(frule.points[:, 0])
                for fi, lf in enumerate(local_facets(2)):
                    if tuple(lf) == tuple(le):
                        targets.append(bub[j])
                    else:
                        targets.append(np.zeros(frule.npoints))
                rows.append(_lift(trace_rows, targets))
            else:
                targets = []
                for lf in local_facets(3):
                    if set(le) <= set(lf):
                        which = local_edges(2)[
                            [tuple(e) for e in _face_edge_map(lf)].index(tuple(le))]
                        which_idx = [tuple(e) for e in _face_edge_map(lf)].index(tuple(le))
                        lift = _face_scalar_lift(k, which_idx, j)
                        tri = modal_basis("l2", k, 2)
                        targets.append(lift @ tri.values(frule.points)[:, :, 0])
                    else:
                        targets.append(np.zeros(frule.npoints))
                rows.append(_lift(trace_rows, targets))
        entity.append(("edge", le_index, nbub))
    # face functions (3D)
    if dim == 3:
        bub = _tri_scalar_bubble(k)
        nface = bub.shape[0]
        if nface:
            tri = modal_basis("l2", k, 2)
            bvals = np.einsum("bm,mpk->bpk", bub, tri.values(frule.points))[:, :, 0]
            for lf_index, lf in enumerate(local_facets(3)):
                for j in range(nface):
                    targets = [bvals[j] if fi == lf_index else np.zeros(frule.npoints)
                               for fi in range(4)]
                    rows.append(_lift(trace_rows, targets))
                entity.append(("face", lf_index, nface))
    # interior: null space of all boundary traces
    C = np.concatenate(trace_rows, axis=1).T
    null = _orthonormal_nullspace(C, np.eye(modal.nfuncs))
    for r in null:
        rows.append(r)
    if null.shape[0]:
        entity.append(("interior", 0, null.shape[0]))
    return ConformingBasis("h1", k, dim, np.array(rows), entity)


def _face_edge_map(lf):
    """Edges of a local face in the face's own (sorted) vertex order."""
    a, b, c = lf
    return [(a, b), (a, c), (b, c)]


def _build_tangential(family, degree):
    """Conforming H(curl)-type basis on the tetrahedron.

    family 'hcurl' is the Nedelec space N_degree, family 'vec' the full
    vector polynomial space P_degree^3; both glue through tangential
    traces.
    """
    k = degree
    dim = 3
    modal = modal_basis(family, k, dim)
    m_edge = k if family == "hcurl" else k + 1
    face_family = family
    facet_order = 2 * k + 4
    trace_rows, frule = _boundary_trace_rows(modal, dim, facet_order)
    rows = []
    entity = []
    tri = modal_basis(face_family, k, 2)
    tri_vals = tri.values(frule.points)  # (nf2d, nq, 2)
    # edge functions
    for le_index, le in enumerate(local_edges(3)):
        for j in range(m_edge):
            targets = []
            for lf in local_facets(3):
                if set(le) <= set(lf):
                    which_idx = [tuple(e) for e in _face_edge_map(lf)].index(tuple(le))
                    lift = _face_tangential_lift(face_family, k, m_edge, which_idx, j)
                    tang = np.einsum("f,fpk->pk", lift, tri_vals)
                    targets.append(tang)
                else:
                    targets.append(np.zeros((frule.npoints, 2)))
            rows.append(_lift(trace_rows, targets))
        entity.append(("edge", le_index, m_edge))
    # face functions
    bub = _tri_vector_bubble(face_family, k)
    nface = bub.shape[0]
    if nface:
        bvals = np.einsum("bm,mpk->bpk", bub, tri_vals)
        for lf_index in range(4):
            for j in range(nface):
                targets = [bvals[j] if fi == lf_index else np.zeros((frule.npoints, 2))
                           for fi in range(4)]
                rows.append(_lift(trace_rows, targets))
            entity.append(("face", lf_index, nface))
    C = np.concatenate(trace_rows, axis=1).T
    null = _orthonormal_nullspace(C, np.eye(modal.nfuncs))
    for r in null:
        rows.append(r)
    if null.shape[0]:
        entity.append(("interior", 0, null.shape[0]))
    return ConformingBasis(family, k, dim, np.array(rows), entity)


def _build_hdiv(degree, dim):
    k = degree
    modal = modal_basis("hdiv", k, dim)
    facet_order = 2 * k + 2
    trace_rows, frule = _boundary_trace_rows(modal, dim, facet_order)
    tr = modal_basis("l2", k - 1, dim - 1)
    tvals = tr.values(frule.points)[:, :, 0]
    rows = []
    entity = []
    kind = "edge" if dim == 2 else "face"
    for lf_index in range(dim + 1):
        for j in range(tr.nfuncs):
            targets = [tvals[j] if fi == lf_index else np.zeros(frule.npoints)
                       for fi in range(dim + 1)]
            rows.append(_lift(trace_rows, targets))
        entity.append((kind, lf_index, tr.nfuncs))
    C = np.concatenate(trace_rows, axis=1).T
    null = _orthonormal_nullspace(C, np.eye(modal.nfuncs))
    for r in null:
        rows.append(r)
    if null.shape[0]:
        entity.append(("interior", 0, null.shape[0]))
    return ConformingBasis("hdiv", k, dim, np.array(rows), entity)


# -- facet trace matrices ---------------------------------------------


def facet_trace_matrix(family, degree, dim, local_facet):
    """Map volume modal coefficients to facet trace coefficients.

    The relevant trace is the Dirichlet value for h1, the outward normal
    component for hdiv and the tangential (parameter-frame) components
    for hcurl/vec.  Returns (T, trace_dim) where T has shape
    (trace_dim, nfuncs) and full row rank; the trace basis is orthonormal
    in L2 of the parameter facet.  L2 has no trace and raises.
    """
    if family == "l2":
        raise ValueError("l2 fields have no facet trace")
    lf = tuple(local_facet)
    if lf not in local_facets(dim):
        raise ValueError(f"unknown local facet {local_facet!r}")
    basis = modal_basis(family, degree, dim)
    order = 2 * degree + 4
    rule = simplex_rule(dim - 1, order)
    pts = facet_points(dim, lf, rule.points)
    vals = basis.values(pts)
    if family == "h1":
        tr = vals[:, :, 0][:, :, None]
    elif family == "hdiv":
        n = facet_outward_normal(dim, lf)
        tr = np.einsum("fpc,c->fp", vals, n)[:, :, None]
    else:
        A, _ = facet_parametrization(dim, lf)
        tr = np.einsum("fpc,ck->fpk", vals, A)
    G = np.einsum("ipk,jpk,p->ij", tr, tr, rule.weights)
    lam, U = eigh(G)
    keep = lam > _RANK_TOL * lam.max()
    # orthonormal basis of the trace space, expressed through the volume
    # functions that generate it
    Q = (U[:, keep] / np.sqrt(lam[keep])).T  # (ntrace, nfuncs)
    T = Q @ G
    return T, Q.shape[0]


# -- exact sequence check ---------------------------------------------


def exact_sequence_check(p, dim):
    """Residuals of the polynomial de Rham inclusions at degree p.

    Checks grad P_p inside N_p, curl N_p inside R_p (3D) or rot N_p
    inside P_{p-1} (2D), and div R_p inside P_{p-1}.  Returns the max
    relative projection residual per link.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    rule = simplex_rule(dim, 2 * p + 2)
    w = rule.weights

    def proj_residual(fields, target_vals):
        G = np.einsum("ipk,jpk,p->ij", target_vals, target_vals, w)
        worst = 0.0
        for f in fields:
            rhs = np.einsum("jpk,pk,p->j", target_vals, f, w)
            coef = np.linalg.solve(G, rhs)
            err = f - np.einsum("j,jpk->pk", coef, target_vals)
            num = np.sqrt(np.einsum("pk,pk,p->", err, err, w))
            # the source fields are L2-normalized, so scale against the
            # larger of the derivative norm and one; dividing by a tiny
            # derivative norm would only amplify roundoff
            den = max(np.sqrt(np.einsum("pk,pk,p->", f, f, w)), 1.0)
            worst = max(worst, num / den)
        return worst

    out = {}
    h1 = modal_basis("h1", p, dim)
    ned = modal_basis("hcurl", p, dim)
    rt = modal_basis("hdiv", p, dim)
    scal = modal_basis("l2", max(p - 1, 0), dim)
    grads = h1.derivs(rule.points)
    out["grad_in_hcurl"] = proj_residual(list(grads), ned.values(rule.points))
    curls = ned.derivs(rule.points)
    if dim == 3:
        out["curl_in_hdiv"] = proj_residual(list(curls), rt.values(rule.points))
    else:
        out["rot_in_scalar"] = proj_residual(list(curls), scal.values(rule.points))
    divs = rt.derivs(rule.points)
    out["div_in_scalar"] = proj_residual(list(divs), scal.values(rule.points))
    return out


# -- physical geometry -------------------------------------------------


class MeshGeometry:
    """Affine cell maps and pullback data for a mesh.

    Per-cell lookups take one cell index or a slice of cells; a slice
    adds a leading cell axis to the result.
    """

    def __init__(self, mesh):
        self.mesh = mesh
        v = mesh.vertices[mesh.cells]
        self.origin = v[:, 0, :]
        self.J = np.swapaxes(v[:, 1:, :] - v[:, :1, :], 1, 2)  # (nc, d, d)
        self.det = np.linalg.det(self.J)
        self.Jinv = np.linalg.inv(self.J)
        self.absdet = np.abs(self.det)

    def map_points(self, ci, ref_points):
        return self.origin[ci][..., None, :] + ref_points @ np.swapaxes(
            self.J[ci], -1, -2)

    def outward_normal(self, ci, lf):
        fid = self.mesh.cell_facet_ids[ci, lf]
        sign = self.mesh.cell_facet_signs[ci, lf]
        return sign[..., None] * self.mesh.facet_normals[fid]


def _times(tab, M):
    """An (nf, nq, c) table times M (..., c, d) on its last axis, one
    matrix product per cell: (..., nf, nq, d)."""
    out = tab.reshape(-1, tab.shape[-1]) @ M
    return out.reshape(M.shape[:-2] + tab.shape[:-1] + M.shape[-1:])


def push_values(family, vals, J, Jinv, det):
    """Push reference basis values to a physical cell, or to a stack of
    cells given (K, d, d) maps and (K,) determinants.

    h1 composes, l2 scales by 1/det, hcurl/vec map covariantly and hdiv
    contravariantly (with 1/det).  h1 values are the same on every cell
    and keep their reference shape.
    """
    det = np.asarray(det)[..., None, None, None]
    if family in ("h1",):
        return vals
    if family == "l2":
        return vals / det
    if family in ("hcurl", "vec"):
        return _times(vals, Jinv)
    if family == "hdiv":
        return _times(vals, np.swapaxes(J, -1, -2)) / det
    raise ValueError(family)


def push_derivs(family, der, J, Jinv, det):
    """Push family derivatives: grad covariantly, div and 2D curl by
    1/det, 3D curl contravariantly."""
    det = np.asarray(det)[..., None, None, None]
    if family in ("h1", "l2"):
        return _times(der, Jinv)
    if family == "hdiv":
        return der / det
    if family in ("hcurl", "vec"):
        if J.shape[-1] == 3:
            return _times(der, np.swapaxes(J, -1, -2)) / det
        return der / det
    raise ValueError(family)
