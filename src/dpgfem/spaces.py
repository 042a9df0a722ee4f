"""Global discrete spaces on a mesh.

A slot (one field or interface variable of a formulation) is realized
by a dof map that knows, per cell, which global dofs its local basis
functions touch and with what orientation factor.  Four continuity
kinds exist:

* ``broken``       -- modal basis per cell, no coupling;
* ``conforming``   -- entity-glued basis (H1, H(curl), H(div) families);
* ``skeleton``     -- boundary traces of a conforming parent space
                      (interface variables of u-hat type);
* ``facet``        -- independent polynomial per facet (normal-flux
                      interface variables, oriented by the canonical
                      facet normal).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse

from .quadrature import reference_volume, simplex_rule
from .reference import (
    MeshGeometry,
    facet_points,
    push_derivs,
    push_values,
)
from .simplex import facet_measure, local_edges, local_facets


# -- element tables ----------------------------------------------------


class ElementTables:
    """Per-cell transformed basis tables for one (family, degree) pair.

    Reference values are computed once; each cell applies its own
    pullback.  ``basis`` may be a modal or a conforming basis object.
    Per-cell lookups take one cell index or a slice of cells; a slice
    adds a leading cell axis (h1 values, the same on every cell, keep
    their reference shape).
    """

    def __init__(self, mesh, basis, geometry=None, volume_order=None,
                 facet_order=None):
        self.mesh = mesh
        self.basis = basis
        self.family = basis.family
        self.geo = geometry if geometry is not None else MeshGeometry(mesh)
        dim = mesh.dim
        deg = basis.degree
        self.vrule = simplex_rule(dim, volume_order if volume_order else 2 * deg + 2)
        self.frule = simplex_rule(dim - 1, facet_order if facet_order else 2 * deg + 2)
        self._ref_val = basis.values(self.vrule.points)
        self._ref_der = basis.derivs(self.vrule.points)
        self._ref_fval = []
        for lf in local_facets(dim):
            pts = facet_points(dim, lf, self.frule.points)
            self._ref_fval.append(basis.values(pts))

    def volume_weights(self, ci):
        return self.geo.absdet[ci][..., None] * self.vrule.weights

    def values(self, ci):
        g = self.geo
        return push_values(self.family, self._ref_val, g.J[ci], g.Jinv[ci], g.det[ci])

    def derivs(self, ci):
        g = self.geo
        return push_derivs(self.family, self._ref_der, g.J[ci], g.Jinv[ci], g.det[ci])

    def facet_weights(self, ci, lf):
        fid = self.mesh.cell_facet_ids[ci, lf]
        area = self.mesh.facet_areas[fid] / reference_volume(self.mesh.dim - 1)
        return area[..., None] * self.frule.weights

    def facet_values(self, ci, lf):
        g = self.geo
        return push_values(self.family, self._ref_fval[lf], g.J[ci], g.Jinv[ci],
                           g.det[ci])

    def physical_points(self, ci):
        return self.geo.map_points(ci, self.vrule.points)

    def physical_facet_points(self, ci, lf):
        dim = self.mesh.dim
        pts = facet_points(dim, local_facets(dim)[lf], self.frule.points)
        return self.geo.map_points(ci, pts)


# -- boundary entity sets ----------------------------------------------


def boundary_entities(mesh):
    """Vertex ids, edge pairs and face triples lying on the boundary."""
    verts = set()
    edges = set()
    faces = set()
    for fid in mesh.boundary_facets:
        fv = tuple(int(v) for v in mesh.facets[fid])
        verts.update(fv)
        if mesh.dim == 2:
            edges.add(fv)
        else:
            faces.add(fv)
            edges.update({(fv[0], fv[1]), (fv[0], fv[2]), (fv[1], fv[2])})
    return verts, edges, faces


# -- dof maps ----------------------------------------------------------


class DofMap:
    """Global numbering for one slot.

    Attributes
    ----------
    ndofs : int
    cell_dofs : ndarray (ncells, nloc) int
    cell_factors : ndarray (ncells, nloc) float
        Orientation/scaling factors multiplying the local basis.
    boundary : ndarray (ndofs,) bool
        Dofs supported on the domain boundary (candidates for essential
        conditions).
    local_functions : None or list of int
        For skeleton maps, indices of the parent basis functions used
        per cell (same for every cell); None means all basis functions.
    """

    def __init__(self, ndofs, cell_dofs, cell_factors, boundary,
                 local_functions=None):
        self.ndofs = ndofs
        self.cell_dofs = cell_dofs
        self.cell_factors = cell_factors
        self.boundary = boundary
        self.local_functions = local_functions


def broken_map(mesh, nb):
    nc = mesh.ncells
    cell_dofs = np.arange(nc * nb, dtype=int).reshape(nc, nb)
    factors = np.ones((nc, nb))
    boundary = np.zeros(nc * nb, dtype=bool)
    return DofMap(nc * nb, cell_dofs, factors, boundary)


def _entity_keys(mesh, ci, basis):
    """Global entity key per conforming basis function of one cell."""
    dim = mesh.dim
    cell = mesh.cells[ci]
    lfacets = local_facets(dim)
    ledges = local_edges(dim)
    keys = []
    for kind, loc, j in basis.dof_entities():
        if kind == "vertex":
            keys.append(("v", (int(cell[loc]),), j))
        elif kind == "edge":
            if dim == 2:
                e = lfacets[loc]
            else:
                e = ledges[loc]
            keys.append(("e", (int(cell[e[0]]), int(cell[e[1]])), j))
        elif kind == "face":
            f = lfacets[loc]
            keys.append(("f", tuple(int(x) for x in cell[list(f)]), j))
        else:
            keys.append(("i", (int(ci),), j))
    return keys


def _hdiv_factor(mesh, geo, ci, kind, loc):
    dim = mesh.dim
    facet_kind = "edge" if dim == 2 else "face"
    if kind != facet_kind:
        return float(np.sign(geo.det[ci]))
    sgn = mesh.cell_facet_signs[ci, loc]
    return float(sgn * np.sign(geo.det[ci]) / facet_measure(dim, local_facets(dim)[loc]))


def conforming_map(mesh, basis, geometry=None, skeleton=False):
    """Numbering of a conforming space; ``skeleton=True`` keeps only the
    non-interior (boundary-trace carrying) functions."""
    geo = geometry if geometry is not None else MeshGeometry(mesh)
    bverts, bedges, bfaces = boundary_entities(mesh)
    numbering = {}
    nc = mesh.ncells
    ents = basis.dof_entities()
    use = [k for k, (kind, _, _) in enumerate(ents)
           if not (skeleton and kind == "interior")]
    nloc = len(use)
    cell_dofs = np.zeros((nc, nloc), dtype=int)
    factors = np.ones((nc, nloc))
    bnd_flags = []
    hdiv = basis.family == "hdiv"
    for ci in range(nc):
        keys = _entity_keys(mesh, ci, basis)
        for col, k in enumerate(use):
            key = keys[k]
            gid = numbering.get(key)
            if gid is None:
                gid = len(numbering)
                numbering[key] = gid
                tag, ent, _ = key
                if tag == "v":
                    bnd_flags.append(ent[0] in bverts)
                elif tag == "e":
                    bnd_flags.append(ent in bedges)
                elif tag == "f":
                    bnd_flags.append(ent in bfaces)
                else:
                    bnd_flags.append(False)
            cell_dofs[ci, col] = gid
            if hdiv:
                kind, loc, _ = ents[k]
                factors[ci, col] = _hdiv_factor(mesh, geo, ci, kind, loc)
    boundary = np.array(bnd_flags, dtype=bool)
    local = use if skeleton else None
    return DofMap(len(numbering), cell_dofs, factors, boundary, local)


def facet_map(mesh, nb_per_facet):
    """One independent polynomial block per facet, oriented canonically."""
    nc = mesh.ncells
    dim = mesh.dim
    nfac = dim + 1
    nloc = nfac * nb_per_facet
    cell_dofs = np.zeros((nc, nloc), dtype=int)
    factors = np.ones((nc, nloc))
    for ci in range(nc):
        for lf in range(nfac):
            fid = mesh.cell_facet_ids[ci, lf]
            sgn = mesh.cell_facet_signs[ci, lf]
            sl = slice(lf * nb_per_facet, (lf + 1) * nb_per_facet)
            cell_dofs[ci, sl] = fid * nb_per_facet + np.arange(nb_per_facet)
            factors[ci, sl] = sgn
    boundary = np.zeros(mesh.nfacets * nb_per_facet, dtype=bool)
    for fid in mesh.boundary_facets:
        boundary[fid * nb_per_facet:(fid + 1) * nb_per_facet] = True
    return DofMap(mesh.nfacets * nb_per_facet, cell_dofs, factors, boundary)


# -- slot gram matrices -------------------------------------------------


def natural_gram(tables, dofmap, include_deriv=True, dtype=float):
    """Sparse Gram of a volume slot in its natural norm.

    L2 norm of the values plus, when ``include_deriv``, the L2 norm of
    the family derivative (giving H1/H(curl)/H(div) graph norms).
    """
    mesh = tables.mesh
    rows, cols, vals = [], [], []
    for ci in range(mesh.ncells):
        w = tables.volume_weights(ci)
        v = tables.values(ci)
        if dofmap.local_functions is not None:
            v = v[dofmap.local_functions]
        M = np.einsum("ipc,jpc,p->ij", v, v, w)
        if include_deriv:
            d = tables.derivs(ci)
            if dofmap.local_functions is not None:
                d = d[dofmap.local_functions]
            M = M + np.einsum("ipc,jpc,p->ij", d, d, w)
        f = dofmap.cell_factors[ci]
        M = M * np.outer(f, f)
        idx = dofmap.cell_dofs[ci]
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append(M.ravel())
    G = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.ndofs, dofmap.ndofs), dtype=dtype).tocsc()
    return G


def facet_owners(mesh):
    """First (cell, local facet) pair owning each facet, ascending cell id."""
    owner = np.full((mesh.nfacets, 2), -1, dtype=int)
    nfac = mesh.dim + 1
    for ci in range(mesh.ncells):
        for lf in range(nfac):
            fid = mesh.cell_facet_ids[ci, lf]
            if owner[fid, 0] < 0:
                owner[fid] = (ci, lf)
    return owner


class TraceField:
    """Facet-trace view of a slot, for interface projections.

    kind selects the trace component: 'value' (scalar families),
    'tangential' (v - (v.n)n against the canonical facet normal),
    'normal' (v.n, canonical normal) or 'flux' (facet-polynomial slots,
    whose representation is already the canonical-normal flux).
    """

    def __init__(self, mesh, dofmap, kind, tables=None, flux_values=None):
        self.mesh = mesh
        self.dofmap = dofmap
        self.kind = kind
        self.tables = tables
        self.flux_values = flux_values
        if kind == "flux":
            self.ncomp = 1
            self._nb = flux_values.shape[0]
        else:
            self.ncomp = 3 if kind == "tangential" else 1

    def trace(self, ci, lf):
        """(nloc, nq, ncomp) trace values of the cell's local functions."""
        if self.kind == "flux":
            nb = self._nb
            nq = self.flux_values.shape[1]
            out = np.zeros(((self.mesh.dim + 1) * nb, nq, 1))
            out[lf * nb:(lf + 1) * nb, :, 0] = self.flux_values
            return out
        v = self.tables.facet_values(ci, lf)
        use = self.dofmap.local_functions
        if use is not None:
            v = v[use]
        fid = self.mesh.cell_facet_ids[ci, lf]
        n = self.mesh.facet_normals[fid]
        if self.kind == "value":
            out = v
        elif self.kind == "normal":
            out = np.einsum("fpc,c->fp", v, n)[:, :, None]
        elif self.kind == "tangential":
            vn = np.einsum("fpc,c->fp", v, n)
            out = v - vn[:, :, None] * n[None, None, :]
        else:
            raise ValueError(self.kind)
        return out * self.dofmap.cell_factors[ci][:, None, None]


def trace_mass(mesh, tables, A, B=None):
    """Sparse facet-trace product matrix between two trace fields.

    Entry (i, j) is sum over facets of int tr(phi_i^A) . tr(phi_j^B).
    Each facet is visited once through its first owning cell, so both
    fields must produce single-valued traces there.  ``tables`` supplies
    the facet quadrature (any tables built with the shared facet rule).
    """
    if B is None:
        B = A
    owners = facet_owners(mesh)
    rows, cols, vals = [], [], []
    for fid in range(mesh.nfacets):
        ci, lf = owners[fid]
        wf = tables.facet_weights(ci, lf)
        ta = A.trace(ci, lf)
        tb = B.trace(ci, lf)
        blk = np.einsum("ipc,jpc,p->ij", ta, tb, wf)
        ia = A.dofmap.cell_dofs[ci]
        ib = B.dofmap.cell_dofs[ci]
        rows.append(np.repeat(ia, len(ib)))
        cols.append(np.tile(ib, len(ia)))
        vals.append(blk.ravel())
    M = sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(A.dofmap.ndofs, B.dofmap.ndofs)).tocsc()
    return M


def trace_rhs(mesh, tables, A, target):
    """Projection rhs b_i = sum over facets of int target . conj(tr phi_i)
    together with the squared trace norm of the target.

    With the real-valued trace basis this is the right-hand side of the
    facet least-squares fit M c = b whose solution represents target.
    ``target(fid, ci, lf, x, n)`` returns (nq, ncomp) values at the
    physical facet quadrature points x with canonical facet normal n.
    """
    owners = facet_owners(mesh)
    b = None
    tnorm2 = 0.0
    for fid in range(mesh.nfacets):
        ci, lf = owners[fid]
        wf = tables.facet_weights(ci, lf)
        x = tables.physical_facet_points(ci, lf)
        n = mesh.facet_normals[fid]
        t = np.asarray(target(fid, ci, lf, x, n))
        if t.ndim == 1:
            t = t[:, None]
        ta = A.trace(ci, lf)
        contrib = np.einsum("ipc,pc,p->i", ta, t, wf)
        if b is None:
            b = np.zeros(A.dofmap.ndofs, dtype=contrib.dtype)
        elif contrib.dtype.kind == "c" and b.dtype.kind != "c":
            b = b.astype(complex)
        np.add.at(b, A.dofmap.cell_dofs[ci], contrib)
        tnorm2 += float(np.real(np.einsum("pc,pc,p->", t, t.conj(), wf)))
    return b, tnorm2


def _local_graph_gram(tables, ci, include_deriv=True):
    w = tables.volume_weights(ci)
    v = tables.values(ci)
    M = np.einsum("ipc,jpc,p->ij", v, v, w)
    if include_deriv:
        d = tables.derivs(ci)
        M = M + np.einsum("ipc,jpc,p->ij", d, d, w)
    return M


def _local_skeleton_schur(tables, skel_map, ci, include_deriv=True):
    """Per-cell Schur complement of the parent graph Gram onto the
    non-interior (skeleton) functions, interior functions eliminated."""
    M = _local_graph_gram(tables, ci, include_deriv)
    use = skel_map.local_functions
    n = M.shape[0]
    interior = [k for k in range(n) if k not in set(use)]
    Ms = M[np.ix_(use, use)]
    if interior:
        Mis = M[np.ix_(interior, use)]
        Mii = M[np.ix_(interior, interior)]
        Ms = Ms - Mis.T @ np.linalg.solve(Mii, Mis)
    return Ms


def skeleton_quotient_apply(tables, skel_map, v, include_deriv=True):
    """Minimum-energy-extension energy of a skeleton coefficient vector.

    The parent graph norm is minimized over all interior completions;
    interior dofs are cell-local, so the minimization splits per cell.
    """
    energy = 0.0
    for ci in range(tables.mesh.ncells):
        Ms = _local_skeleton_schur(tables, skel_map, ci, include_deriv)
        c = v[skel_map.cell_dofs[ci]] * skel_map.cell_factors[ci]
        energy += float(np.real(c.conj() @ (Ms @ c)))
    return max(energy, 0.0)


def skeleton_quotient_gram(tables, skel_map, include_deriv=True):
    """Dense quotient-norm Gram on skeleton dofs (small meshes)."""
    n = skel_map.ndofs
    S = np.zeros((n, n))
    for ci in range(tables.mesh.ncells):
        Ms = _local_skeleton_schur(tables, skel_map, ci, include_deriv)
        f = skel_map.cell_factors[ci]
        idx = skel_map.cell_dofs[ci]
        S[np.ix_(idx, idx)] += Ms * np.outer(f, f)
    return S
