"""Commuting moment-preserving interpolants on tetrahedra.

The three operators (scalar, tangential, normal) map onto constrained
subspaces of P_{p+3}, N_{p+3} and R_{p+3} whose members have selected
edge and face moments zeroed out.  Each interpolant is defined by a
square moment system; the module also provides the numerical
certificates used by the tests: residuals of the defining moments,
closure of the commuting diagram, and operator-norm sweeps over
dilated and sheared element shapes.

Every polynomial span is a modal basis of the solver's reference stack
evaluated at the reference preimages of the quadrature points and
pushed to the tetrahedron, so one code path serves the reference
tetrahedron and the shape-family sweeps.  Interpolation is linear: the
moments of m fields are one right-hand side with m columns, and the
span coefficients of their interpolants are one matrix.

Functions on the tetrahedron's surface have one representation,
TetQuadrature.surface: coefficients of a trace over an orthonormal
basis of polynomials on each face, so that face moments are dot
products.  The spaces of face moments are matrices of such rows, and
the duality workspaces of ``verification.py`` use the same coefficients.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np
from scipy.linalg import eigh, lu_factor, lu_solve, svd

from .meshes import SimplicialMesh
from .polynomials import Polys, monomials, space_dimension, trace_dimension
from .quadrature import simplex_rule
from .reference import _integrate, _rank, edge_points, facet_points, \
    legendre01, modal_basis, push_derivs, push_values, trace_factor
from .simplex import REF_VERTICES, local_edges, local_facets

REFERENCE_TET = REF_VERTICES[3]
TET_EDGES = tuple(local_edges(3))
# face i lies opposite vertex i
TET_FACES = tuple(local_facets(3)[::-1])

# shapes used by the bound sweep: a mild shear and a flattened element
# with aspect ratio around ten
SHAPE_FAMILY = {
    "reference": REFERENCE_TET,
    "sheared": np.array([[0.0, 0.0, 0.0],
                         [1.0, 0.0, 0.0],
                         [0.6, 1.0, 0.0],
                         [0.5, 0.4, 1.0]]),
    "aspect10": np.array([[0.0, 0.0, 0.0],
                          [1.0, 0.0, 0.0],
                          [0.0, 1.0, 0.0],
                          [0.3, 0.3, 0.1]]),
}

_FAMILY = {"grad": "h1", "curl": "hcurl", "div": "hdiv"}

# the surface trace each interpolant's face moments act on
_FACE_MODE = {"grad": "value", "curl": "rotated", "div": "normal"}


def _as_field(a):
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


class TetQuadrature:
    """Volume, face and edge rules on a tetrahedron given by vertices.

    The tetrahedron is a one-cell mesh, which gives the affine map
    x = v0 + J x_ref, the diameter h and the face normals and areas, and
    rejects a flat tetrahedron.  Points are physical; each point set also
    keeps its preimage on the reference tetrahedron (``vol_ref``,
    ``face_ref``, ``edge_ref``), where span() evaluates a modal basis
    before pushing it through the map.  Faces and edges lead the point
    axes: face points are (4, nq, 3), edge points (6, ne, 3).

    Functions on the surface are surface() coefficients over an
    orthonormal basis of P_{order // 2} on each face: ``face_basis``
    (nq, nb), scaled by the square roots of the face rule's weights, and
    tangential data in the frames (e1, n x e1) of ``frame`` (4, 3, 2).
    """

    def __init__(self, vertices, order):
        v = np.asarray(vertices, dtype=float)
        if v.shape != (4, 3):
            raise ValueError("need 4 tetrahedron vertices in 3D")
        self.mesh = mesh = SimplicialMesh(3, v, [[0, 1, 2, 3]])
        geo = mesh.geometry
        self.vertices = mesh.vertices
        self.centroid = v.mean(axis=0)
        self.h = mesh.cell_diameters[0]
        self.J, self.det, self.Jinv = geo.J[0], geo.det[0], geo.Jinv[0]
        vrule = simplex_rule(3, order)
        self.vol_ref = vrule.points
        self.vol_points = self.physical(vrule.points)
        self.vol_weights = vrule.weights * abs(self.det)
        frule = simplex_rule(2, order)
        self.face_params = frule.points
        self.face_ref = np.stack([facet_points(3, f, frule.points)
                                  for f in TET_FACES])
        self.face_points = self.physical(self.face_ref)
        # face i, opposite vertex i, is local facet 3 - i of the cell
        lf = np.arange(3, -1, -1)
        areas = mesh.facet_areas[mesh.cell_facet_ids[0, lf]]
        self.face_weights = 2.0 * areas[:, None] * frule.weights
        self.face_normals = geo.outward_normal(0, lf)
        self.face_basis = (
            modal_basis("l2", order // 2, 2).values(frule.points)[:, :, 0]
            * np.sqrt(frule.weights)).T
        corners = self.vertices[np.array(TET_FACES)]
        e1 = corners[:, 1] - corners[:, 0]
        e1 /= np.linalg.norm(e1, axis=1)[:, None]
        self.frame = np.stack([e1, np.cross(self.face_normals, e1)], axis=-1)
        erule = simplex_rule(1, order)
        self.edge_params = erule.points[:, 0]
        self.edge_ref = np.stack([edge_points(3, e, self.edge_params)
                                  for e in TET_EDGES])
        d = np.stack([v[b] - v[a] for a, b in TET_EDGES])
        lengths = np.linalg.norm(d, axis=1)
        self.edge_weights = lengths[:, None] * erule.weights
        self.edge_tangents = d / lengths[:, None]

    def physical(self, ref):
        return self.mesh.geometry.map_points(0, ref)

    def reference(self, points):
        return (np.asarray(points, dtype=float) - self.vertices[0]) @ self.Jinv.T

    def local(self, points):
        """Centered coordinates scaled by the diameter."""
        return (points - self.centroid) / self.h

    def span(self, family, degree, ref, deriv=False):
        """The modal basis of a family pushed to this tetrahedron, or its
        family derivative, at reference points of any leading shape:
        (nfuncs,) + ref.shape[:-1] + (ncomp,)."""
        basis = modal_basis(family, degree, 3)
        pts = ref.reshape(-1, 3)
        tab = basis.derivs(pts) if deriv else basis.values(pts)
        push = push_derivs if deriv else push_values
        tab = push(family, tab, self.J, self.Jinv, self.det)
        return tab.reshape(tab.shape[:1] + ref.shape[:-1] + tab.shape[-1:])

    def sample(self, fns):
        """Point callables at the volume points (m, nv, c) and the face
        points (m, 4, nq, c)."""
        nv = len(self.vol_points)
        pts = np.concatenate([self.vol_points, self.face_points.reshape(-1, 3)])
        vals = np.stack([_as_field(fn(pts)) for fn in fns])
        return vals[:, :nv], vals[:, nv:].reshape(
            (len(vals),) + self.face_weights.shape + vals.shape[-1:])

    def trace(self, vals, kind):
        """Per-face trace (``reference.trace_factor``) of values
        (..., 4, nq, c) at the face points, with the outward face
        normals: (..., 4, nq, r)."""
        return vals @ trace_factor(kind, self.face_normals)

    def surface(self, vals, kind):
        """Coefficients over the face basis of one kind of trace of values
        (..., 4, nq, c) at the face points, tangential data in the face
        frames: (..., 4 r nb), faces then trace components leading.  Dot
        products of these rows are face integrals."""
        t = self.trace(vals, kind)
        if kind in ("tangential", "rotated"):
            t = t @ self.frame
        t = np.swapaxes(t * np.sqrt(self.face_weights)[..., None], -1, -2)
        c = t.reshape(-1, t.shape[-1]) @ self.face_basis
        return c.reshape(vals.shape[:-3] + (-1,))


def _orthonormal(rows, expected=None):
    """Orthonormal rows spanning the row space of surface coefficients."""
    _, sv, Vt = svd(rows, full_matrices=False)
    rank = _rank(sv)
    if expected is not None and rank != expected:
        raise RuntimeError(f"boundary space rank {rank}, expected {expected}")
    # a C-ordered copy: products with the F-ordered view round differently
    return Vt[:rank].copy()


def _complement(span, sub, expected=None):
    """Orthonormal rows of the complement of span(sub) inside span(span)."""
    onb = _orthonormal(span)
    U, sv, _ = svd(onb @ sub.T, full_matrices=True)
    rank = _rank(sv)
    if expected is not None and U.shape[1] - rank != expected:
        raise RuntimeError(
            f"complement dimension {U.shape[1] - rank}, expected {expected}")
    return U[:, rank:].T @ onb


def _piecewise_boundary(quad, m):
    """Discontinuous per-face polynomials of degree <= m on the surface:
    the first dim P_m functions of each face's graded basis."""
    n = 4 * quad.face_basis.shape[1]
    rows = np.eye(n).reshape(4, -1, n)[:, :space_dimension("l2", m, 2)]
    return rows.reshape(-1, n)


def _scalar_volume_traces(quad, degree):
    """Orthonormal basis of the surface traces of volume P_degree."""
    return _orthonormal(
        quad.surface(quad.span("h1", degree, quad.face_ref), "value"),
        trace_dimension("h1", degree))


def _trace_complement(quad, p):
    """Per-face P_{p+2} orthogonal to the traces of volume P_{p+2} and
    to the per-face constants."""
    joined = np.concatenate([_scalar_volume_traces(quad, p + 2),
                             _piecewise_boundary(quad, 0)])
    return _complement(_piecewise_boundary(quad, p + 2), joined,
                       expected=6 * p + 11)


class FortinSystem:
    """One interpolant: constrained subspace plus its square moment system.

    The span is the modal basis of degree p+3 of the kind's family pushed
    to the tetrahedron; ``bcoeff`` holds the span coefficients of a basis
    of the constrained subspace B.
    """

    def __init__(self, kind, p, vertices=None):
        if kind not in ("grad", "curl", "div"):
            raise ValueError(f"unknown kind {kind!r}")
        if p < 1:
            raise ValueError("p must be >= 1")
        self.kind = kind
        self.p = p
        self.family = _FAMILY[kind]
        self.mode = _FACE_MODE[kind]
        if vertices is None:
            vertices = REFERENCE_TET
        self.quad = quad = TetQuadrature(vertices, 2 * (p + 6))
        self.dims = {}
        self.vol_vals = quad.span(self.family, p + 3, quad.vol_ref)
        self.vol_derivs = quad.span(self.family, p + 3, quad.vol_ref, True)
        self.face_vals = quad.span(self.family, p + 3, quad.face_ref)
        self._build_constraints()
        self._build_moments()

    # -- constrained subspace ----------------------------------------------

    def _edge_rows(self, edge_deg, tangential):
        """Edge-trace moments against shifted Legendre polynomials."""
        quad = self.quad
        vals = quad.span(self.family, self.p + 3, quad.edge_ref)
        tr = vals @ quad.edge_tangents[:, :, None] if tangential \
            else vals[..., :1]
        L = legendre01(edge_deg, quad.edge_params) * quad.edge_weights[:, None]
        rows = L @ np.moveaxis(tr[..., 0], 0, -1)  # (6, edge_deg + 1, n)
        return rows.reshape(-1, rows.shape[-1])

    def _build_constraints(self):
        quad, p = self.quad, self.p
        if self.kind == "grad":
            rows = [self._edge_rows(p + 3, tangential=False)]
        elif self.kind == "div":
            perp = _trace_complement(quad, p)
            # Flux constraints use the trace-and-constant complement plus
            # the mean-free per-face constants, not the plain complement of
            # the traces.  Both choices have the same dimension, but only
            # this one is annihilated by boundary fluxes of curls (Stokes
            # around each face), which the curl/div compatibility check
            # downstream depends on.
            ones = quad.surface(np.ones((1,) + quad.face_weights.shape + (1,)),
                                "value")
            flux = np.concatenate([perp, _complement(
                _piecewise_boundary(quad, 0), ones, expected=3)])
            self.dims["P_perp"] = len(flux)
            rows = [flux @ quad.surface(self.face_vals, "normal").T]
        else:
            perp = _trace_complement(quad, p)
            self.dims["P0_perp"] = len(perp)
            face_curls = quad.span(self.family, p + 3, quad.face_ref, True)
            # the one remaining constraint: tangential moment against the
            # tangential coordinate field (local coordinates)
            xt = quad.surface(quad.local(quad.face_points)[None], "tangential")
            rows = [self._edge_rows(p + 2, tangential=True),
                    perp @ quad.surface(face_curls, "normal").T,
                    xt @ quad.surface(self.face_vals, "tangential").T]
        # edge and face rows carry different physical scales, so
        # equilibrate before judging the rank, as in _build_moments
        C = np.concatenate(rows)
        C /= np.maximum(np.linalg.norm(C, axis=1), 1e-300)[:, None]
        _, sv, Vt = svd(C, full_matrices=True)
        self.bcoeff = Vt[_rank(sv):].T  # span coefficients of the B basis
        self.bdim = self.bcoeff.shape[1]
        self.dims["B"] = self.bdim

    # -- square moment system ------------------------------------------------

    def _build_moments(self):
        quad, p = self.quad, self.p
        if self.kind == "grad":
            self._vol_test = quad.span("h1", p - 1, quad.vol_ref)
            self._face_test = _piecewise_boundary(quad, p)
        elif self.kind == "curl":
            self._vol_test = quad.span("vec", p, quad.vol_ref)
            self._face_test = _orthonormal(
                quad.surface(quad.span("vec", p + 1, quad.face_ref),
                             "tangential"),
                trace_dimension("vec", p + 1))
        else:
            self._vol_test = quad.span("vec", p + 1, quad.vol_ref)
            self._face_test = _scalar_volume_traces(quad, p + 2)
        B = self.bcoeff.T
        M = self._moments(np.tensordot(B, self.vol_vals, axes=1),
                          np.tensordot(B, self.face_vals, axes=1))
        if M.shape[0] != M.shape[1]:
            raise RuntimeError(
                f"moment system is {M.shape[0]}x{M.shape[1]}, expected square")
        # volume and facet rows carry different physical scales (h^{3/2}
        # against h^{-1/2}), so equilibrate before judging the rank
        self._row_scale = 1.0 / np.maximum(np.linalg.norm(M, axis=1), 1e-300)
        Ms = M * self._row_scale[:, None]
        sv = svd(Ms, compute_uv=False)
        rank = _rank(sv)
        if rank < len(sv):
            raise RuntimeError(
                f"moment system numerically singular (rank {rank} of {M.shape[0]})")
        self.M = M
        self._lu = lu_factor(Ms)

    def _moments(self, vol, face):
        """Defining moments (nrows, m) of m fields given at the volume
        points (m, nv, c) and the face points (m, 4, nq, c)."""
        quad = self.quad
        return np.concatenate([
            _integrate(vol, self._vol_test, quad.vol_weights[:, None]),
            self._face_test @ quad.surface(face, self.mode).T])

    def solve(self, vol, face):
        """Span coefficients (nspan, m) and scalar-mode means (m,) of the
        interpolants of m fields sampled as by TetQuadrature.sample."""
        mean = np.zeros(len(vol))
        if self.kind == "grad":
            w = self.quad.face_weights.ravel()
            mean = face[..., 0].reshape(len(face), -1) @ w / w.sum()
            vol = vol - mean[:, None, None]
            face = face - mean[:, None, None, None]
        X = lu_solve(self._lu, self._moments(vol, face)
                     * self._row_scale[:, None])
        return self.bcoeff @ X, mean

    def volume_tables(self, coeff, mean):
        """Values and family derivatives (m, nv, c) at the volume points of
        the interpolants given by solve()."""
        vals = np.tensordot(coeff.T, self.vol_vals, axes=1)
        return (vals + mean[:, None, None],
                np.tensordot(coeff.T, self.vol_derivs, axes=1))

    def apply(self, fn):
        """Interpolate a callable (points -> values)."""
        coeff, mean = self.solve(*self.quad.sample([fn]))
        return FortinInterpolant(self, coeff[:, 0], mean[0])

    def moment_residuals(self, fns):
        """Max relative residual of the defining moments, one per input."""
        vol, face = self.quad.sample(fns)
        coeff, mean = self.solve(vol, face)
        ivol, _ = self.volume_tables(coeff, mean)
        iface = (np.tensordot(coeff.T, self.face_vals, axes=1)
                 + mean[:, None, None, None])
        worst = np.abs(self._moments(ivol - vol, iface - face)).max(axis=0)
        scale = np.sqrt(np.sum(vol * vol, axis=2) @ self.quad.vol_weights)
        return worst / np.maximum(scale, 1e-30)


class FortinInterpolant:
    """Image of one input: span coefficients plus the scalar-mode mean."""

    def __init__(self, system, coeff, mean=0.0):
        self.system = system
        self.coeff = coeff
        self.mean = mean

    def values(self, points):
        s = self.system
        tab = s.quad.span(s.family, s.p + 3, s.quad.reference(points))
        return np.tensordot(self.coeff, tab, axes=1) + self.mean


@lru_cache(maxsize=None)
def _monomial_fields(degree, vector):
    """The scalar monomials up to a degree, graded; as vector fields q e_c,
    component-major."""
    scalars = monomials(3, degree)
    if not vector:
        return scalars
    c = scalars.coeffs[:, 0]
    return Polys(scalars.exponents, (np.eye(3)[:, None, :, None] * c[:, None])
                 .reshape(3 * len(c), 3, -1))


class PolySample:
    """Random linear combination of scalar monomials, point-callable.

    Scalar samples return (np,), vector samples (np, 3).  Derivatives
    are exact: the operator is applied to the monomial fields, whose
    term coefficients are then combined with the sample's once.
    """

    def __init__(self, degree, coefs):
        self.degree = degree
        self.coefs = np.asarray(coefs, dtype=float)
        if self.coefs.shape[0] != space_dimension("h1", degree, 3):
            raise ValueError("coefficient count mismatch")
        self.polys = _monomial_fields(degree, not self.scalar)

    @property
    def scalar(self):
        return self.coefs.ndim == 1

    def _field(self, polys, points):
        c = self.coefs if self.scalar else self.coefs.T.ravel()
        out = polys.monomials(points) @ np.tensordot(c, polys.coeffs, axes=1).T
        return out[:, 0] if polys.ncomp == 1 else out

    def __call__(self, points):
        return self._field(self.polys, points)

    def grad(self):
        return partial(self._field, self.polys.grad())

    def curl(self):
        return partial(self._field, self.polys.curl())

    def div(self):
        return partial(self._field, self.polys.div())


def default_samples(kind, p, seed=0, count=6, degree=None):
    """Seeded random polynomial inputs for the verification routines."""
    rng = np.random.default_rng(seed)
    if degree is None:
        degree = p + 4
    ncoef = space_dimension("h1", degree, 3)
    out = []
    for _ in range(count):
        if kind == "grad":
            out.append(PolySample(degree, rng.standard_normal(ncoef)))
        else:
            out.append(PolySample(degree, rng.standard_normal((ncoef, 3))))
    return out


def fortin_build(kind, p, vertices=None):
    return FortinSystem(kind, p, vertices=vertices)


def fortin_moments(kind, p, samples=None, system=None):
    """Largest relative moment residual over the sample inputs."""
    sys_ = system if system is not None else fortin_build(kind, p)
    if samples is None:
        samples = default_samples(kind, p)
    return float(sys_.moment_residuals(samples).max())


def fortin_commuting(p, samples=None, vertices=None, systems=None):
    """Max relative residual of the three commuting identities.

    grad of the scalar interpolant matches the tangential interpolant
    of the gradient; curl of the tangential matches the normal
    interpolant of the curl; div of the normal matches the L2
    projection of the divergence onto P_{p+2}.
    """
    if systems is None:
        systems = {k: fortin_build(k, p, vertices) for k in ("grad", "curl", "div")}
    sg, sc, sd = systems["grad"], systems["curl"], systems["div"]
    quad = sg.quad
    w = quad.vol_weights
    if samples is None:
        samples = {"scalar": default_samples("grad", p, seed=1, count=4),
                   "vector": default_samples("curl", p, seed=2, count=4)}

    def interpolate(sys_, fns):
        vol, face = quad.sample(fns)
        return sys_.volume_tables(*sys_.solve(vol, face)), vol

    def rel(a, ref):
        num = np.sqrt(np.sum(a * a, axis=2) @ w)
        return num / np.maximum(np.sqrt(np.sum(ref * ref, axis=2) @ w), 1e-30)

    scalars, vectors = samples["scalar"], samples["vector"]
    (_, lhs), _ = interpolate(sg, scalars)
    (rhs, _), gvals = interpolate(sc, [v.grad() for v in scalars])
    worst = [rel(lhs - rhs, gvals)]
    (_, lhs), _ = interpolate(sc, vectors)
    (rhs, _), cvals = interpolate(sd, [E.curl() for E in vectors])
    worst.append(rel(lhs - rhs, cvals))
    (_, lhs), _ = interpolate(sd, vectors)
    dvals = quad.sample([E.div() for E in vectors])[0]
    proj = quad.span("h1", p + 2, quad.vol_ref)
    pc = np.linalg.solve(_integrate(proj, proj, w[:, None]),
                         _integrate(dvals, proj, w[:, None]))
    worst.append(rel(lhs - np.tensordot(pc.T, proj, axes=1), dvals))
    return float(np.concatenate(worst).max())


def fortin_bound_sweep(p, kinds=("grad", "curl", "div"),
                       lambdas=(1e-2, 1e-1, 1.0, 10.0), shapes=None):
    """Measured operator norms over dilated and sheared tets.

    The sample space is the whole degree p+4 span of the family, whose
    interpolants are one solve.  The weighted norm scales the L2 part by
    1/h, which makes the constant dilation invariant; the plain
    graph-norm constant is recorded alongside for monitoring.
    """
    if shapes is None:
        shapes = SHAPE_FAMILY
    records = []
    for kind in kinds:
        family = _FAMILY[kind]
        for name, verts in shapes.items():
            for lam in lambdas:
                sys_ = fortin_build(kind, p, vertices=np.asarray(verts) * lam)
                quad = sys_.quad
                w = quad.vol_weights[:, None]
                sv = quad.span(family, p + 4, quad.vol_ref)
                sd = quad.span(family, p + 4, quad.vol_ref, True)
                Pv, Pd = sys_.volume_tables(*sys_.solve(
                    sv, quad.span(family, p + 4, quad.face_ref)))
                L2i, Di, L2s, Ds = (_integrate(a, a, w)
                                    for a in (Pv, Pd, sv, sd))
                h = quad.h
                cw = np.sqrt(max(eigh(L2i / h ** 2 + Di, L2s / h ** 2 + Ds,
                                      eigvals_only=True)[-1], 0.0))
                cf = np.sqrt(max(eigh(L2i + Di, L2s + Ds,
                                      eigvals_only=True)[-1], 0.0))
                records.append({"kind": kind, "shape": name, "lam": float(lam),
                                "weighted": float(cw), "full": float(cf)})
    return records

