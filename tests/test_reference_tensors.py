"""Element kernels and interface norms against point-by-point quadrature.

The oracle below evaluates the test Gram G and the mixed block B of one
cell the direct way: every basis table is pushed to the physical cell
(``oracles.pushed_values``, ``pushed_derivs``), coefficients,
convection vectors and facet normals are applied at the quadrature
points, and each block is a weighted sum over the points
(``reference._integrate``).  ``Discretization.element_system`` must
agree with it entrywise to 1e-12 of the largest entry, for all twelve
formulations (the diffusion ones in 2D and 3D, Maxwell in both modes),
with per-cell diffusion and convection, on sheared, aspect-10 and
reflected meshes, each with cells of both orientations (negative and
positive determinants).

Complex-valued coefficients are not accepted by the formulations, so
the complex forms are exercised through Maxwell with non-default eps
(per cell), mu and omega.

A second oracle does the same for the interface norms on the same
meshes: the Schur complements of the parent graph Grams, the facet trace
masses, the quotient Gram V^T S V (V the global trace embedding, S the
parent skeleton Gram) and the facet projection of smooth exact traces
of every interface slot, and the natural Gram of every
conforming trial slot, each from pushed tables summed point by point.
"""

import numpy as np
import pytest

from dpgfem.formulations import DCR_IDS, MAXWELL_IDS, ManufacturedCase, \
    exact_interface, make_formulation
from dpgfem.meshes import SimplicialMesh, build_structured
from dpgfem.reference import _integrate
from dpgfem.spaces import conforming_map, natural_gram, skeleton_schur
from dpgfem.system import Discretization
from oracles import cell_columns, facet_weights, pushed_derivs, pushed_values

# cells -> physical cells: x -> x @ A.T
MAPS = {
    "sheared": {2: [[1.0, 0.7], [0.0, 1.0]],
                3: [[1.0, 0.6, -0.4], [0.0, 1.0, 0.5], [0.0, 0.0, 1.0]]},
    "aspect10": {2: [[10.0, 0.0], [0.0, 1.0]],
                 3: [[10.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "reflected": {2: [[-1.0, 0.3], [0.0, 1.0]],
                  3: [[-1.0, 0.0, 0.2], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
}

CONFIGS = ([(fid, 2, "guaranteed") for fid in DCR_IDS]
           + [(fid, 3, "guaranteed") for fid in DCR_IDS]
           + [(fid, 3, mode) for fid in MAXWELL_IDS
              for mode in ("guaranteed", "economy")])


def _mesh(kind, dim):
    base = build_structured("unit-square" if dim == 2 else "unit-cube", 1)
    A = np.array(MAPS[kind][dim])
    return SimplicialMesh(dim, base.vertices @ A.T, base.cells)


def _params(fid, mesh):
    rng = np.random.default_rng(3)
    nc, dim = mesh.ncells, mesh.dim
    if fid in MAXWELL_IDS:
        return {"eps": 2.0 + rng.random(nc), "mu": 0.5, "omega": 1.5}
    return {"a": 0.5 + rng.random(nc), "gamma": 0.5,
            "beta": rng.standard_normal((nc, dim))}


# -- the oracle: pushed tables, then quadrature ------------------------


class _Pushed:
    """Physical tables, weights, normals and coefficients of one cell."""

    def __init__(self, disc, ci):
        self.disc, self.cells = disc, slice(ci, ci + 1)
        ref = disc._ref_tables
        self.w = ref.volume_weights(self.cells)[:, None, :, None]

    def table(self, operand):
        name, op = operand
        tab = self.disc._tables[name]
        return pushed_derivs(tab, self.cells) if op == "der" \
            else pushed_values(tab, self.cells)

    def facet(self, name, lf):
        return pushed_values(self.disc._tables[name], self.cells, lf)

    def fw(self, lf):
        return facet_weights(self.disc._ref_tables, self.cells,
                             lf)[:, None, :, None]

    def normal(self, lf):
        return self.disc.mesh.geometry.outward_normal(self.cells, lf)[:, None, None, :]

    def coef(self, coef, conj=False):
        const, mul, div = coef
        val = const
        for key in mul + div:
            par = np.asarray(self.disc.form.params[key], dtype=float)
            if key == "beta":
                par = par if par.ndim == 1 else par[self.cells, None, None, :]
            elif par.ndim:
                par = par[self.cells, None, None, None]
            val = val * par if key in mul else val / par
        return np.conj(val) if conj else val


def _times(c, tab):
    """c times a table: a vector c multiplies a scalar table and is
    dotted with a vector one."""
    if np.ndim(c) == 0 or np.shape(c)[-1] == 1:
        return c * tab
    if tab.shape[-1] == 1:
        return tab * c
    return (tab * c).sum(axis=-1, keepdims=True)


def _oracle(disc, ci):
    """(G, B) of cell ci, B in global coefficients, by quadrature."""
    form, ctx = disc.form, _Pushed(disc, ci)
    n = disc.ntest_local
    dtype = form.dtype
    G = np.zeros((1, n, n), dtype=dtype)
    for s in form.test_slots:
        at = disc.test_offset(s.name)
        parts = [ctx.table((s.name, "val"))]
        if s.deriv_in_norm and form.y_norm == "natural":
            parts.append(ctx.table((s.name, "der")))
        for v in parts:
            m = v.shape[-3]
            G[:, at:at + m, at:at + m] += _integrate(v, v, ctx.w)
    # ||A* y||^2: per trial slot, A* y sums conj(cx) cy y over the volume
    # terms (cx, x, cy, y) on the slot's values
    for s in form.trial_slots if form.y_norm == "graph" else ():
        A = np.zeros((1, n, ctx.w.shape[2], s.ncomp), dtype=dtype)
        for cx, x, cy, y in form.volume:
            if x == (s.name, "val"):
                at = disc.test_offset(y[0])
                part = _times(ctx.coef(cx, conj=True),
                              _times(ctx.coef(cy), ctx.table(y)))
                A[:, at:at + part.shape[-3]] += part
        G += _integrate(A, A, ctx.w)

    cols, at = {}, 0
    for s in form.trial_slots:
        cols[s.name] = at
        at += ctx.table((s.name, "val")).shape[-3]
    B0 = np.zeros((1, n, at), dtype=dtype)
    for cx, x, cy, y in form.volume:
        r0, c0 = disc.test_offset(y[0]), cols[x[0]]
        X = _times(ctx.coef(cx), ctx.table(x))
        Y = _times(ctx.coef(cy), ctx.table(y))
        B0[:, r0:r0 + Y.shape[-3], c0:c0 + X.shape[-3]] += \
            _integrate(X, Y, ctx.w)

    blocks = []
    for pr in form.pairings:
        space = disc._interfaces[pr.slot]
        use = space.dofmap.local_functions
        Bp = 0.0
        for lf in range(form.dim + 1):
            x = pushed_values(space.tables, ctx.cells, lf)[..., use, :, :]
            y = ctx.facet(pr.test, lf)
            nrm = ctx.normal(lf)
            # the flux meets the test value through its outward normal
            # component
            if form.slot(pr.slot).family == "hdiv":
                x = (x * nrm).sum(axis=-1, keepdims=True)
            if pr.trace == "n.":
                y = (y * nrm).sum(axis=-1, keepdims=True)
            elif pr.trace == "nx":
                y = np.cross(nrm, y)
            blk = np.zeros((1, n, x.shape[-3]), dtype=dtype)
            r0 = disc.test_offset(pr.test)
            blk[:, r0:r0 + y.shape[-3]] = _integrate(
                x, y, ctx.coef(pr.coef) * ctx.fw(lf))
            Bp = Bp + blk
        blocks.append(Bp)
    B = np.concatenate([B0] + blocks, axis=-1)
    G = 0.5 * (G + np.swapaxes(G.conj(), -1, -2))
    return G[0], B[0] * cell_columns(disc, ci)[1]


@pytest.mark.parametrize("kind", sorted(MAPS))
@pytest.mark.parametrize("fid,dim,mode", CONFIGS,
                         ids=[f"{f}-{d}d-{m}" for f, d, m in CONFIGS])
def test_element_system_matches_quadrature(fid, dim, mode, kind):
    mesh = _mesh(kind, dim)
    # cells keep ascending vertex ids, so every mesh here has cells of
    # both orientations; reflection swaps which ones
    assert np.any(mesh.signed_volumes < 0) and np.any(mesh.signed_volumes > 0)
    form = make_formulation(fid, 1, delta=2 if mode == "economy" else 3,
                            dim=dim, params=_params(fid, mesh), mode=mode)
    disc = Discretization(form, mesh)
    for ci in range(mesh.ncells):
        G, B, _ = disc.element_system(ci)
        Go, Bo = _oracle(disc, ci)
        for got, want in ((G, Go), (B, Bo)):
            assert got.shape == want.shape
            scale = np.max(np.abs(want))
            assert np.max(np.abs(got - want)) <= 1e-12 * scale


# -- interface norms against pushed tables -----------------------------


def _smooth_case(dim):
    """Smooth, non-polynomial fields for every exact trace that an
    interface slot carries: u, sigma, and complex E and H in 3D."""
    def u(x):
        return np.exp(0.3 * x[:, 0]) * np.cos(x[:, 1] + 0.5 * x[:, -1])

    def sigma(x):
        return np.stack([np.sin(x[:, k] + k) * (1.0 + x[:, -1 - k])
                         for k in range(dim)], axis=1)

    def E(x):
        return sigma(x) + 1j * np.cos(x[:, :1] + x[:, 1:2]) * [1.0, -2.0, 0.5]

    def H(x):
        return np.exp(x[:, ::-1] / 3) - 1j * sigma(x)

    return ManufacturedCase("smooth", dim, {},
                            {"u": u, "sigma": sigma, "E": E, "H": H})


def _trace_kind(slot):
    return {"h1": "value", "hdiv": "normal"}.get(slot.family, "tangential")


def _pushed_traces(disc, tables, dofmap, kind, ci, lf):
    """Pushed traces on local facet lf of cell ci of the functions whose
    trace there is not zero: values (n, nq, c) and their global dofs (n,).
    The traces are taken along the canonical facet normal and multiplied
    by the orientation factors."""
    mesh = disc.mesh
    cols = np.arange(dofmap.cell_dofs.shape[1])
    use = dofmap.local_functions
    v = pushed_values(tables, ci, lf)[cols if use is None
                                    else np.asarray(use)]
    vals = v
    if kind != "value":
        n = mesh.facet_normals[mesh.cell_facet_ids[ci, lf]]
        vn = (v @ n)[..., None]
        vals = vn if kind == "normal" else v - vn * n
    vals = vals * dofmap.cell_factors[ci][cols][:, None, None]
    size = np.sqrt(np.sum(vals ** 2, axis=(1, 2)))
    keep = size > 1e-8 * size.max()
    return vals[keep], dofmap.cell_dofs[ci][cols][keep]


def _owned_facets(mesh):
    """Each facet once, as (cell, local facet) of its first cell."""
    return zip(mesh.facet_cells[:, 0], mesh.facet_local[:, 0])


class _PushedNorm:
    """The interface norm of one slot, recomputed from pushed tables."""

    def __init__(self, disc, slot):
        space = disc._interfaces[slot.name]
        self.disc, self.name = disc, slot.name
        self.kind = _trace_kind(slot)
        self.imap = space.dofmap
        self.itab = space.tables
        # the space keeps its parent at the reference level; the oracle
        # numbers the parent's skeleton over the mesh
        self.ptab = space.parent.tables
        self.pskel = conforming_map(disc.mesh, self.ptab.basis, skeleton=True)

    def parent(self, ci, lf):
        return _pushed_traces(self.disc, self.ptab, self.pskel, self.kind,
                              ci, lf)

    def slot(self, ci, lf):
        return _pushed_traces(self.disc, self.itab, self.imap, self.kind,
                              ci, lf)

    def weights(self, ci, lf):
        return facet_weights(self.ptab, ci, lf)

    def schur(self):
        tab, skel = self.ptab, self.pskel
        use = list(skel.local_functions)
        rest = [k for k in range(tab.basis.nfuncs) if k not in use]
        out = []
        for ci in range(self.disc.mesh.ncells):
            w = tab.volume_weights(ci)
            M = sum(np.einsum("ipc,jpc,p->ij", t, t, w)
                    for t in (pushed_values(tab, ci), pushed_derivs(tab, ci)))
            S = M[np.ix_(use, use)] - M[np.ix_(use, rest)] @ np.linalg.solve(
                M[np.ix_(rest, rest)], M[np.ix_(rest, use)])
            f = skel.cell_factors[ci]
            out.append(S * np.outer(f, f))
        return np.array(out)

    def mass(self):
        n = self.imap.ndofs
        M = np.zeros((n, n))
        for ci, lf in _owned_facets(self.disc.mesh):
            v, i = self.slot(ci, lf)
            M[np.ix_(i, i)] += np.einsum("ipc,jpc,p->ij", v, v,
                                         self.weights(ci, lf))
        return M

    def quotient_gram(self):
        """The global V^T S V: V the trace embedding below, S the sum of
        the per-cell Schur complements over the parent skeleton dofs."""
        skel = self.pskel
        S = np.zeros((skel.ndofs, skel.ndofs))
        for idx, Sk in zip(skel.cell_dofs, self.schur()):
            S[np.ix_(idx, idx)] += Sk
        V = self.embedding()
        return V.T @ S @ V

    def embedding(self):
        """Per facet, the L2 projection of the slot traces onto the
        parent's; copies of one entry from several facets averaged."""
        total = np.zeros((self.pskel.ndofs, self.imap.ndofs))
        count = np.zeros_like(total)
        for ci, lf in _owned_facets(self.disc.mesh):
            w = self.weights(ci, lf)
            p, ip = self.parent(ci, lf)
            v, iv = self.slot(ci, lf)
            V = np.linalg.solve(np.einsum("ipc,jpc,p->ij", p, p, w),
                                np.einsum("ipc,jpc,p->ij", p, v, w))
            total[np.ix_(ip, iv)] += V
            count[np.ix_(ip, iv)] += 1
        return np.divide(total, count, out=np.zeros_like(total),
                         where=count > 0)

    def project(self, case):
        """Facet L2 projection of the slot's exact trace."""
        disc = self.disc
        sign, field = exact_interface(disc.form, case, self.name)
        mesh = disc.mesh
        b = np.zeros(self.imap.ndofs, dtype=complex)
        for ci, lf in _owned_facets(mesh):
            x = self.ptab.physical_facet_points(ci, lf)
            n = np.repeat(mesh.facet_normals[
                mesh.cell_facet_ids[ci, lf]][None], len(x), axis=0)
            t = sign * np.asarray(field(x)).reshape(len(x), -1)
            if self.kind == "normal":
                t = np.sum(t * n, axis=1)[:, None]
            elif self.kind == "tangential":
                t = t - np.sum(t * n, axis=1)[:, None] * n
            v, i = self.slot(ci, lf)
            np.add.at(b, i, np.einsum("ipc,pc,p->i", v, t,
                                      self.weights(ci, lf)))
        return np.linalg.solve(self.mass(), b)


def _pushed_natural_gram(tables, dofmap):
    n = dofmap.ndofs
    G = np.zeros((n, n))
    for ci in range(tables.mesh.ncells):
        w = tables.volume_weights(ci)
        M = sum(np.einsum("ipc,jpc,p->ij", t, t, w)
                for t in (pushed_values(tables, ci),
                          pushed_derivs(tables, ci)))
        f, idx = dofmap.cell_factors[ci], dofmap.cell_dofs[ci]
        G[np.ix_(idx, idx)] += M * np.outer(f, f)
    return G


def _close(got, want):
    got = got.toarray() if hasattr(got, "toarray") else np.asarray(got)
    assert got.shape == want.shape
    scale = np.max(np.abs(want))
    assert np.max(np.abs(got - want)) <= 1e-12 * scale


# p=2 gives the flux more than one function per facet and the skeletons
# a higher degree; it runs on the sheared meshes only, to bound the time
NORM_CASES = [(f, d, m, 1, k) for f, d, m in CONFIGS for k in sorted(MAPS)] + [
    (f, d, m, 2, "sheared") for f, d, m in [
        ("ultraweak_dcr", 2, "guaranteed"), ("ultraweak_dcr", 3, "guaranteed"),
        ("maxwell_ultraweak", 3, "guaranteed"),
        ("maxwell_ultraweak", 3, "economy")]]


@pytest.mark.parametrize(
    "fid,dim,mode,p,kind", NORM_CASES,
    ids=[f"{f}-{d}d-{m}" + (f"-p{p}" if p > 1 else "") + f"-{k}"
         for f, d, m, p, k in NORM_CASES])
def test_interface_norms_match_quadrature(fid, dim, mode, p, kind):
    mesh = _mesh(kind, dim)
    form = make_formulation(fid, p, delta=2 if mode == "economy" else 3,
                            dim=dim, params=_params(fid, mesh), mode=mode)
    disc = Discretization(form, mesh)
    case = _smooth_case(dim)
    for s in form.trial_slots:
        if s.continuity == "conforming":
            _close(natural_gram(disc._tables[s.name], disc.dofmap(s.name)),
                   _pushed_natural_gram(disc._tables[s.name],
                                        disc.dofmap(s.name)))
    for s in form.interface_slots:
        oracle, space = _PushedNorm(disc, s), disc._interfaces[s.name]
        S = skeleton_schur(space.parent.tables, space.parent.use)
        f = oracle.pskel.cell_factors
        cls = mesh.geometry.shape_classes[1]
        _close(S[cls] * f[:, :, None] * f[:, None, :], oracle.schur())
        _close(space.mass, oracle.mass())
        _close(disc.interface_quotient_gram(s.name), oracle.quotient_gram())
        _close(disc.project_exact(s, case), oracle.project(case))
