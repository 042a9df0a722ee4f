"""Test-only routines: dense oracles and reference-element checks.

The duality oracle takes a route apart from the one in ``src/dpgfem``:
it integrates point by point on its own rule and solves the small dense
system the definition gives, so that it shares no factorization, cache
or shortcut with the code under test.  The facet trace matrices and the
exact sequence check probe the reference bases; the pushed tables, the
per-cell columns and the explicit Petrov-Galerkin assembly give the
tests a second route to what the library computes by contraction and
condensation; the 64-bit COO sum is the sparse sum that the library's
32-bit index triples must reproduce; and the power iteration is the
lower bound of ||b|| that ``Discretization.opnorm`` must not fall
below.  Nothing in the library calls any of them.
"""

import numpy as np
from scipy import sparse
from scipy.linalg import cho_factor, cho_solve, eigh

from dpgfem.fortin import REFERENCE_TET, TetQuadrature
from dpgfem.polynomials import space_dimension, trace_dimension
from dpgfem.quadrature import simplex_rule
from dpgfem.reference import _RANK_TOL, _independent, _integrate, _inv_sqrt, \
    facet_outward_normal, facet_points, modal_basis, push_derivs, push_values
from dpgfem.simplex import facet_parametrization, local_facets
from dpgfem.spaces import _by_parts
from dpgfem.system import _factor
from dpgfem.verification import _MODES, _PAIRINGS


def min_energy_extension_norms(pairing, q, fields):
    """(quotient, dual) norms of the traces of some fields (point
    callables) at degree q, by a KKT solve.

    The quotient norm is the graph norm of the minimum-energy extension
    in the degree-q extension family whose trace matches the L2
    projection of the trace onto the trace space; it is found from the
    saddle-point system [[G, C^T], [C, 0]] with C the full-rank trace
    constraints.  The dual norm is sup <trace, z> / |z| over the dual
    family, sqrt(b^T G_dual^{-1} b).  Both integrate on the degree
    2 (q + 2) rule, above the degree 2 q that the integrands need.
    """
    ext_family, dual_family = _PAIRINGS[pairing]
    ext_mode, dual_mode = _MODES[pairing]
    quad = TetQuadrature(REFERENCE_TET, 2 * (q + 2))
    sw = np.sqrt(quad.face_weights)[..., None]

    def graph_gram(family):
        v = quad.span(family, q, quad.vol_ref)
        d = quad.span(family, q, quad.vol_ref, deriv=True)
        w = quad.vol_weights[:, None]
        return sum((x * w).reshape(len(x), -1) @ x.reshape(len(x), -1).T
                   for x in (v, d))

    def weighted_traces(family, mode):
        tr = quad.trace(quad.span(family, q, quad.face_ref), mode)
        return (tr * sw).reshape(len(tr), -1)

    t_w = np.stack([(quad.trace(quad.sample([f])[1], ext_mode)[0] * sw).ravel()
                    for f in fields], axis=1)

    # the trace constraint E^T x = P t_w, reduced to its k independent rows
    U, s, Vt = np.linalg.svd(weighted_traces(ext_family, ext_mode).T,
                             full_matrices=False)
    k = int((s > 1e-9 * s[0]).sum())
    C, c = Vt[:k], (U[:, :k].T @ t_w) / s[:k, None]
    G = graph_gram(ext_family)
    n = len(G)
    K = np.block([[G, C.T], [C, np.zeros((k, k))]])
    x = np.linalg.solve(K, np.vstack([np.zeros((n, len(fields))), c]))[:n]
    quot = np.sqrt(np.sum(x * (G @ x), axis=0))

    b = weighted_traces(dual_family, dual_mode) @ t_w
    dual = np.sqrt(np.sum(b * np.linalg.solve(graph_gram(dual_family), b),
                          axis=0))
    return list(zip(quot.tolist(), dual.tolist()))


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
        tr = vals
    elif family == "hdiv":
        tr = (vals @ facet_outward_normal(dim, lf))[:, :, None]
    else:
        tr = vals @ facet_parametrization(dim, lf)[0]
    G = _integrate(tr, tr, rule.weights[:, None])
    G = 0.5 * (G + G.T)
    lam, U = eigh(G)
    U = U[:, lam > _RANK_TOL * lam.max()]
    # orthonormal basis of the trace space through the traces of volume
    # functions, picked in order by the unique projector onto range(G)
    keep = _independent(U @ U.T, np.full(len(G), _RANK_TOL))
    return _inv_sqrt(G[np.ix_(keep, keep)]) @ G[keep], len(keep)


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
    w = rule.weights[:, None]

    def proj_residual(fields, target_vals):
        coef = np.linalg.solve(_integrate(target_vals, target_vals, w),
                               _integrate(fields, target_vals, w))
        err = fields - np.tensordot(coef.T, target_vals, axes=1)
        num = np.sqrt(np.diag(_integrate(err, err, w)))
        # the source fields are L2-normalized, so scale against the
        # larger of the derivative norm and one; dividing by a tiny
        # derivative norm would only amplify roundoff
        den = np.maximum(np.sqrt(np.diag(_integrate(fields, fields, w))), 1.0)
        return float(np.max(num / den))

    out = {}
    h1 = modal_basis("h1", p, dim)
    ned = modal_basis("hcurl", p, dim)
    rt = modal_basis("hdiv", p, dim)
    scal = modal_basis("l2", max(p - 1, 0), dim)
    grads = h1.derivs(rule.points)
    out["grad_in_hcurl"] = proj_residual(grads, ned.values(rule.points))
    curls = ned.derivs(rule.points)
    if dim == 3:
        out["curl_in_hdiv"] = proj_residual(curls, rt.values(rule.points))
    else:
        out["rot_in_scalar"] = proj_residual(curls, scal.values(rule.points))
    divs = rt.derivs(rule.points)
    out["div_in_scalar"] = proj_residual(divs, scal.values(rule.points))
    return out


# -- pushed tables, mesh facets and element columns ---------------------


def pushed_values(tables, ci, lf=None):
    """The values of an ``ElementTables`` basis pushed to one cell or a
    slice or index array of cells, on the volume rule or on the rule of
    local facet lf."""
    g = tables.geo
    return push_values(tables.family, tables.table("val", lf), g.J[ci],
                       g.Jinv[ci], g.det[ci])


def pushed_derivs(tables, ci):
    """The derivatives of an ``ElementTables`` basis pushed to cells."""
    g = tables.geo
    return push_derivs(tables.family, tables.table("der"), g.J[ci],
                       g.Jinv[ci], g.det[ci])


def facet_weights(tables, ci, lf):
    """Physical weights of the facet rule on local facet lf of cells."""
    return tables.facet_scale(ci, lf)[..., None] * tables.frule.weights


def interior_facets(mesh):
    """Ids of the facets shared by two cells."""
    return np.flatnonzero(mesh.facet_cells[:, 1] != -1)


def cell_columns(disc, ci):
    """Global column dofs and factors of one cell, field slots first."""
    dofs, facs = disc._columns
    return dofs[ci], facs[ci]


def perp_dimensions(p):
    """Dimensions (P0_perp, P_perp) of the surface complement spaces of
    the Fortin operators, from the counting formula."""
    full = 4 * space_dimension("h1", p + 2, 2)
    ctrace = trace_dimension("h1", p + 2)
    return full - ctrace - 3, full - ctrace


def pg_assemble(disc, case=None):
    """Assemble by explicitly constructing the optimal test functions.

    Each trial column j gets its own test function t_j with
    coefficients G^{-1} B e_j; the stiffness entry is b(phi_j, t_i).
    Algebraically equal to the condensed normal equations, built cell
    by cell through the test-function route as an independent check.
    """
    dtype = disc.form.dtype
    rows, cols, vals = [], [], []
    f = np.zeros(disc.ndof, dtype=dtype)
    for ci in range(disc.mesh.ncells):
        G, B, l = disc.element_system(ci, case)
        T = cho_solve(cho_factor(G, lower=True), B)
        idx, _ = cell_columns(disc, ci)
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append((T.conj().T @ B).ravel())
        f[idx] += T.conj().T @ l
    A = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(disc.ndof, disc.ndof), dtype=dtype).tocsc()
    return A, f


def coo_sum64(parts, shape):
    """CSC sum of the (blocks, rows, cols) parts of ``spaces._block_matrix``
    from a COO triple with 64-bit row and column indices: block k's entry
    (i, j) sits at (rows[k, i], cols[k, j]), parts and cells in order."""
    r, c, v = [], [], []
    for blocks, rows, cols in parts:
        m, n = blocks.shape[-2:]
        r.append(np.repeat(rows.astype(np.int64), n, axis=1).ravel())
        c.append(np.tile(cols.astype(np.int64), (1, m)).ravel())
        v.append(blocks.ravel())
    return sparse.coo_matrix(
        (np.concatenate(v), (np.concatenate(r), np.concatenate(c))),
        shape=shape).tocsc()


def power_opnorm(disc, seed=0, steps=120, tol=1e-11):
    """Power iteration on G_X^{-1} B^H G_Y^{-1} B for ||b||: the
    Rayleigh quotient after at most ``steps`` steps, or once it moves by
    at most ``tol`` relative to max(it, 1).  A lower bound of ||b||:
    when the top of the spectrum is clustered the iteration stops
    before it converges."""
    Gx = disc.trial_gram()
    lu = _factor(Gx)
    A = disc._matrix()
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(disc.ndof)
    if disc.form.is_complex:
        v = v + 1j * rng.standard_normal(disc.ndof)
    v /= np.sqrt(np.real(np.vdot(v, Gx @ v)))
    val = 0.0
    for _ in range(steps):
        # y-residual application: A v = sum over cells B^H G^{-1} B v
        w = A @ v
        new = np.sqrt(max(float(np.real(np.vdot(v, w))), 0.0))
        v = _by_parts(lu.solve, w)
        nv = np.sqrt(np.real(np.vdot(v, Gx @ v)))
        if nv == 0:
            return 0.0
        v /= nv
        if abs(new - val) <= tol * max(new, 1.0):
            val = new
            break
        val = new
    return float(val)
