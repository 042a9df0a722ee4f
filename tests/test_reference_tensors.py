"""Element kernels against point-by-point quadrature.

The oracle below evaluates the test Gram G and the mixed block B of one
cell the direct way: every basis table is pushed to the physical cell
(``ElementTables.values``, ``derivs``, ``facet_values``), coefficients,
convection vectors and facet normals are applied at the quadrature
points, and each block is a weighted sum over the points
(``formulations._integrate``).  ``Discretization.element_system`` must
agree with it entrywise to 1e-12 of the largest entry, for all twelve
formulations (the diffusion ones in 2D and 3D, Maxwell in both modes),
with per-cell diffusion and convection, on sheared, aspect-10 and
reflected meshes, each with cells of both orientations (negative and
positive determinants).

Complex-valued coefficients are not accepted by the formulations, so
the complex forms are exercised through Maxwell with non-default eps
(per cell), mu and omega.
"""

import numpy as np
import pytest

from dpgfem.formulations import DCR_IDS, MAXWELL_IDS, _integrate, \
    make_formulation
from dpgfem.meshes import SimplicialMesh, build_structured
from dpgfem.system import Discretization

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
        return tab.derivs(self.cells) if op == "der" \
            else tab.values(self.cells)

    def facet(self, name, lf):
        return self.disc._tables[name].facet_values(self.cells, lf)

    def fw(self, lf):
        return self.disc._ref_tables.facet_weights(self.cells,
                                                   lf)[:, None, :, None]

    def normal(self, lf):
        return self.disc.geo.outward_normal(self.cells, lf)[:, None, None, :]

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
    for name, entries in form.adjoint_rows:
        A = np.zeros((1, n, ctx.w.shape[2], form.slot(name).ncomp),
                     dtype=dtype)
        for coef, operand in entries:
            at = disc.test_offset(operand[0])
            part = _times(ctx.coef(coef, conj=True), ctx.table(operand))
            A[:, at:at + part.shape[-3]] += part
        G += _integrate(A, A, ctx.w)

    cols, at = {}, 0
    for s in form.trial_slots:
        cols[s.name] = at
        at += ctx.table((s.name, "val")).shape[-3]
    B0 = np.zeros((1, n, at), dtype=dtype)
    for b in form.blocks:
        r0, c0 = disc.test_offset(b.test), cols[b.trial]
        for shared, pairs in b.groups:
            for coef, other in pairs:
                x, y = (other, shared) if b.sum_trial else (shared, other)
                X, Y = ctx.table(x), ctx.table(y)
                B0[:, r0:r0 + Y.shape[-3], c0:c0 + X.shape[-3]] += \
                    _integrate(_times(ctx.coef(coef), X), Y, ctx.w)

    nfac = form.dim + 1
    blocks = []
    for pr in form.pairings:
        if pr.facet:
            basis = disc.flux_basis(pr.slot)[:, :, None]
            xs = [basis] * nfac
        else:
            use = disc.dofmap(pr.slot).local_functions
            xs = [ctx.facet(pr.slot, lf)[..., use, :, :]
                  for lf in range(nfac)]
        Bp = []
        for lf in range(nfac):
            y = ctx.facet(pr.test, lf)
            nrm = ctx.normal(lf)
            if pr.trace == "n.":
                y = (y * nrm).sum(axis=-1, keepdims=True)
            elif pr.trace == "nx":
                y = np.cross(nrm, y)
            blk = np.zeros((1, n, xs[lf].shape[-3]), dtype=dtype)
            r0 = disc.test_offset(pr.test)
            blk[:, r0:r0 + y.shape[-3]] = _integrate(
                xs[lf], y, ctx.coef(pr.coef) * ctx.fw(lf))
            Bp.append(blk)
        if pr.facet:
            blocks.extend(Bp)
        else:
            blocks.append(sum(Bp))
    B = np.concatenate([B0] + blocks, axis=-1)
    G = 0.5 * (G + np.swapaxes(G.conj(), -1, -2))
    return G[0], B[0] * disc.cell_columns(ci)[1]


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
