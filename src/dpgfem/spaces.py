"""Global discrete spaces on a mesh.

A slot (one field or interface variable of a formulation) is realized
by a dof map that knows, per cell, which global dofs its local basis
functions touch and with what orientation factor.  Three continuity
kinds exist:

* ``broken``       -- modal basis per cell, no coupling;
* ``conforming``   -- entity-glued basis (H1, H(curl), H(div) families);
* ``skeleton``     -- boundary traces of a conforming space.

Every interface space is a skeleton: the values of H1 (u-hat), the
normal traces of H(div) (the flux, one unit per facet area) or the
tangential traces of H(curl) or vector H1.  One ``InterfaceSpace`` per
distinct space, shared by the slots on it, decides its trace kind and
holds its dofs, facet operands, trace mass and quotient norm.  Its
parent, the conforming space whose quotient norm measures it, stays on
the reference cell: it is never numbered over the mesh.

The slot Grams and the facet trace masses integrate two bases on
affine cells, so each is one contraction of per-cell factors with a
reference tensor (``reference._contract``), the same as the element
kernels; only data that vary over a facet are summed point by point.
A cell Gram depends on the cell's Jacobian only through its metric, so
the natural Grams, the parent Schur complements and the quotient Grams
are kept as one block per class of cells with the same metric (the
mesh geometry's ``shape_classes``), in local coefficients;
``class_matrix`` gathers such a stack to the cells, scales it by their
dof factors and sums it.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property

import numpy as np
from scipy import sparse

from .meshes import _first_seen
from .quadrature import reference_volume, simplex_rule
from .reference import (
    RefOperand,
    _contract,
    _moments,
    conforming_basis,
    deriv_factor,
    facet_outward_normal,
    facet_points,
    reference_table,
    trace_factor,
    value_factor,
)
from .simplex import facet_measure, local_edges, local_facets


# Cells, classes of cells or facets are evaluated in groups: the stacks
# that a group's members hold stay under this many bytes.  A group's
# temporaries are a few such stacks; larger groups gain no speed and
# raise the peak memory.
_GROUP_BYTES = 2 ** 21


def cell_groups(ncells, cell_bytes):
    """Slices of consecutive members whose stacks, cell_bytes per member,
    stay under the group budget."""
    size = max(1, _GROUP_BYTES // cell_bytes)
    return [slice(s, min(s + size, ncells)) for s in range(0, ncells, size)]


# -- element tables ----------------------------------------------------


class ElementTables:
    """One basis on the cells of a mesh: its reference operands, their
    per-cell factors and the quadrature rules.

    On an affine cell a pushed table is the reference table times a
    per-cell factor (``reference``, ``table``, ``factor``), so products
    of two bases are contractions with reference tensors and data are
    pulled back by the factor.  Reference tables come from the
    process-wide cache on first use.  ``basis`` may be a modal or a
    conforming basis object.
    Per-cell lookups take one cell index, a slice or an index array of
    cells; the latter two add a leading cell axis (h1 values, the same
    on every cell, keep their reference shape).
    """

    def __init__(self, mesh, basis, order=None):
        self.mesh = mesh
        self.basis = basis
        self.family = basis.family
        self.geo = mesh.geometry
        order = order if order else 2 * basis.degree + 2
        self.vrule = simplex_rule(mesh.dim, order)
        self.frule = simplex_rule(mesh.dim - 1, order)

    def groups(self, n):
        """Slices of n consecutive cells or classes, each small enough to
        hold their Grams as one stack."""
        return cell_groups(n, 8 * self.basis.nfuncs ** 2)

    def volume_weights(self, ci):
        return self.geo.absdet[ci][..., None] * self.vrule.weights

    def reference(self, kind, lf=None, funcs=None):
        """The reference operand of the values ('val') or derivatives
        ('der') on the volume rule, or of the values on local facet lf;
        of the functions ``funcs`` (a tuple), or of all when None."""
        rule = self.vrule if lf is None else self.frule
        return RefOperand(self.basis, kind, lf, rule.order, funcs)

    def table(self, kind, lf=None):
        """The reference table of that operand, (nfuncs, nq, ncomp)."""
        return reference_table(self.reference(kind, lf))[0]

    def factor(self, kind, ci):
        """Per-cell factor F with pushed table = reference table @ F, for
        values (also on facets) or derivatives."""
        g = self.geo
        push = deriv_factor if kind == "der" else value_factor
        return push(self.family, g.J[ci], g.Jinv[ci], g.det[ci])

    def facet_scale(self, ci, lf):
        """Facet area over the reference facet's, which scales the facet
        rule's weights."""
        fid = self.mesh.cell_facet_ids[ci, lf]
        return self.mesh.facet_areas[fid] / reference_volume(self.mesh.dim - 1)

    def physical_points(self, ci):
        return self.geo.map_points(ci, self.vrule.points)

    def physical_facet_points(self, ci, lf):
        dim = self.mesh.dim
        pts = facet_points(dim, local_facets(dim)[lf], self.frule.points)
        return self.geo.map_points(ci, pts)


# -- dof maps ----------------------------------------------------------


# Global numbering for one slot: ndofs; per cell, the (ncells, nloc)
# global dofs cell_dofs and the orientation/scaling factors cell_factors
# that multiply the local basis; the (ndofs,) mask boundary of the dofs
# supported on the domain boundary (candidates for essential
# conditions); and for skeleton maps local_functions, the indices of the
# basis functions used per cell (the same for every cell; None means
# all of them).
DofMap = namedtuple("DofMap", "ndofs cell_dofs cell_factors boundary "
                    "local_functions", defaults=(None,))


def broken_map(mesh, nb):
    nc = mesh.ncells
    cell_dofs = np.arange(nc * nb, dtype=int).reshape(nc, nb)
    factors = np.ones((nc, nb))
    boundary = np.zeros(nc * nb, dtype=bool)
    return DofMap(nc * nb, cell_dofs, factors, boundary)


def _local_vertices(dim, kind, loc):
    """Local vertex tuple of a cell's local vertex, edge or face."""
    if kind == "vertex":
        return (loc,)
    return (local_edges(dim) if kind == "edge" else local_facets(dim))[loc]


def _global_entities(mesh):
    """Per entity kind: the (ncells, nlocal) global ids of every cell's
    local entities of that kind (one interior per cell), and the
    boundary mask over the global ids."""
    dim, nv, nc = mesh.dim, mesh.nvertices, mesh.ncells
    bfacets = mesh.facets[mesh.boundary_facets]
    bverts = np.zeros(nv, dtype=bool)
    bverts[bfacets.ravel()] = True
    faces = (mesh.cell_facet_ids, mesh.facet_cells[:, 1] < 0)
    if dim == 2:
        # a triangle's edges are its facets, in the same local order
        edges = faces
    else:
        # edges are keyed by their sorted vertex pair
        ledges = np.array(local_edges(dim))
        ekeys, eids = np.unique(mesh.cells[:, ledges[:, 0]] * nv
                                + mesh.cells[:, ledges[:, 1]],
                                return_inverse=True)
        fedges = np.array(local_edges(dim - 1))
        edges = (eids.reshape(nc, len(ledges)),
                 np.isin(ekeys, bfacets[:, fedges[:, 0]] * nv
                         + bfacets[:, fedges[:, 1]]))
    return {"vertex": (mesh.cells, bverts), "edge": edges, "face": faces,
            "interior": (np.arange(nc)[:, None], np.zeros(nc, dtype=bool))}


def _hdiv_factors(mesh, ents):
    """(ncells, len(ents)) orientation factors of H(div) functions:
    sign(det) on every function, times the facet sign over the reference
    facet measure on facet functions."""
    dim = mesh.dim
    facet_kind = "edge" if dim == 2 else "face"
    measure = np.array([facet_measure(dim, f) for f in local_facets(dim)])
    sdet = np.sign(mesh.geometry.det)
    out = np.repeat(sdet[:, None], len(ents), axis=1)
    cols = [col for col, (kind, _, _) in enumerate(ents) if kind == facet_kind]
    loc = [ents[col][1] for col in cols]
    out[:, cols] = (mesh.cell_facet_signs[:, loc] * sdet[:, None]
                    / measure[loc])
    return out


def conforming_map(mesh, basis, skeleton=False):
    """Numbering of a conforming space; ``skeleton=True`` keeps only the
    non-interior (boundary-trace carrying) functions.

    Global dofs are numbered in order of first appearance, cells in
    ascending order and each cell's functions in local order.
    """
    ents = basis.dof_entities()
    use = [k for k, (kind, _, _) in enumerate(ents)
           if not (skeleton and kind == "interior")]
    glob = _global_entities(mesh)
    kinds = list(glob)
    eids = np.stack([glob[ents[k][0]][0][:, ents[k][1]] for k in use], axis=1)
    on_bnd = np.stack([glob[ents[k][0]][1][eids[:, col]]
                       for col, k in enumerate(use)], axis=1)
    j = np.array([ents[k][2] for k in use])
    code = np.array([kinds.index(ents[k][0]) for k in use])
    # one integer per (entity kind, entity, index within the entity)
    key = (eids * (j.max() + 1) + j) * len(kinds) + code
    first, _, dof = _first_seen(key.ravel())
    cell_dofs = dof.reshape(key.shape)
    boundary = np.zeros(len(first), dtype=bool)
    boundary[cell_dofs] = on_bnd
    factors = (_hdiv_factors(mesh, [ents[k] for k in use])
               if basis.family == "hdiv" else np.ones(key.shape))
    local = use if skeleton else None
    return DofMap(len(first), cell_dofs, factors, boundary, local)


# -- slot gram matrices -------------------------------------------------


def _triplets(blocks, rows, cols, shape):
    """Flat (row, column, value) entries of (K, m, n) blocks placed at
    rows (K, m) and columns (K, n) of a matrix of the given shape.

    The indices take scipy's index type for that shape, 32-bit below
    2**31 rows and columns: the CSC matrix is built with it anyway, so
    wider indices would only double the index bytes of the triple, the
    largest transient of an assembly, and be copied down by scipy.
    """
    m, n = blocks.shape[-2:]
    index = sparse.get_index_dtype(maxval=max(shape))
    rows, cols = rows.astype(index, copy=False), cols.astype(index, copy=False)
    return (np.repeat(rows, n, axis=1).ravel(),
            np.tile(cols, (1, m)).ravel(), blocks.ravel())


def _block_matrix(parts, shape):
    """Sparse sum, in CSC form, of the blocks of (blocks, rows, cols)
    parts.

    The triple's indices take scipy's index type for the shape
    (``_triplets``): 4 bytes below 2**31 rows, which give the same CSC
    values, indices and pointers as 8-byte ones at half the index bytes.
    """
    # one part is used as it is: a copy would raise the peak memory of
    # the largest assemblies
    r, c, v = (a[0] if len(a) == 1 else np.concatenate(a)
               for a in zip(*(_triplets(*p, shape) for p in parts)))
    return sparse.coo_matrix((v, (r, c)), shape=shape).tocsc()


def class_matrix(M, cls, dofs, factors, n):
    """Sparse (n, n) sum of a class stack M over the cells: each cell's
    block M[cls_K], its rows and columns scaled by its (ncells, m)
    factors, placed at its (ncells, m) dofs.  The blocks are gathered
    and scaled in place, one per-cell copy of M in all."""
    blocks = M[cls]
    blocks *= factors[:, :, None]
    blocks *= factors[:, None, :]
    return _block_matrix([(blocks, dofs, dofs)], (n, n))


def _by_parts(f, v):
    """f(v) of a real linear map f; a complex v by its real and imaginary
    parts, so that f meets real values only."""
    return f(v.real) + 1j * f(v.imag) if np.iscomplexobj(v) else f(v)


def _matvec(M, v, transpose=False):
    """Stacked matrix-vector products M v, or M^T v when transpose, of
    (..., n, m) stacks M; a complex v by parts, so that a real M is never
    cast to complex."""
    if transpose:
        M = np.swapaxes(M, -1, -2)
    return _by_parts(lambda u: (M @ u[..., None])[..., 0], v)


def class_apply(M, cls, v, groups, transpose=False):
    """Per-cell products M[cls_K] v_K, or M[cls_K]^T v_K when transpose,
    of a class stack M and (ncells, m) values v, the stack gathered to
    the cells of each of the slices ``groups`` in turn."""
    out = np.empty((len(v), M.shape[2 if transpose else 1]),
                   dtype=np.result_type(M, v))
    for g in groups:
        # unnamed, so that a group's gather is freed before the next
        out[g] = _matvec(M[cls[g]], v[g], transpose)
    return out


def _accumulate(idx, vals, n):
    """Length-n sums of the values at the integer positions idx (arrays of
    one shape), each position's values added in the order given, as
    ``np.add.at`` adds them; complex values are summed by parts."""
    idx = np.ravel(idx)
    return _by_parts(lambda v: np.bincount(idx, weights=v, minlength=n),
                     np.ravel(vals))


def _cell_grams(tables, cells, include_deriv=True, use=None):
    """(K, n, n) Grams of the values, plus the family derivatives when
    ``include_deriv``, of the functions ``use`` on an index array of
    cells."""
    M = 0.0
    for kind in ("val", "der")[:1 + include_deriv]:
        x = (tables.reference(kind), tables.factor(kind, cells))
        M = M + _contract([(x, x)], tables.geo.absdet[cells])
    return M if use is None else M[:, use][:, :, use]


def natural_gram(tables, dofmap, include_deriv=True):
    """Sparse Gram of a volume slot in its natural norm.

    L2 norm of the values plus, when ``include_deriv``, the L2 norm of
    the family derivative (giving H1/H(curl)/H(div) graph norms).
    """
    reps, cls = tables.geo.shape_classes
    f = dofmap.cell_factors
    M = np.empty((len(reps),) + f.shape[-1:] * 2)
    for part in tables.groups(len(reps)):
        M[part] = _cell_grams(tables, reps[part], include_deriv,
                              dofmap.local_functions)
    return class_matrix(M, cls, dofmap.cell_dofs, f, dofmap.ndofs)


def facet_owners(mesh):
    """First (cell, local facet) pair owning each facet, ascending cell id."""
    # cells are visited in ascending order when facets are numbered
    return np.stack([mesh.facet_cells[:, 0], mesh.facet_local[:, 0]], axis=1)


# -- interface spaces ------------------------------------------------

# By family of an interface slot: its trace kind (reference.trace_factor)
# and the family of the parent, whose quotient norm measures it.
_INTERFACE_KINDS = {
    "h1": ("value", "h1"),
    "hdiv": ("normal", "hdiv"),
    "hcurl": ("tangential", "hcurl"),
    "vec": ("tangential", "hcurl"),
}

# A conforming basis on a mesh: its tables, its skeleton (non-interior)
# functions ``use``, and per local facet lf the positions among them of
# the functions with a trace there, whose entity lies in the facet's
# closure (``active[lf]``), and the reference operand of their values
# on lf (``refs[lf]``).
Skeleton = namedtuple("Skeleton", "tables use active refs")


def _skeleton(mesh, family, degree, order):
    """The Skeleton of the conforming space of a family and degree."""
    dim = mesh.dim
    tables = ElementTables(mesh, conforming_basis(family, degree, dim), order)
    ents = tables.basis.dof_entities()
    use = [k for k, (kind, _, _) in enumerate(ents) if kind != "interior"]
    verts = [set(_local_vertices(dim, *ents[k][:2])) for k in use]
    active = [np.array([col for col, v in enumerate(verts) if v <= set(f)],
                       dtype=int) for f in local_facets(dim)]
    refs = [tables.reference("val", lf, tuple(use[k] for k in act))
            for lf, act in enumerate(active)]
    return Skeleton(tables, use, active, refs)


class InterfaceSpace:
    """The space of the interface slots of one (family, degree): the
    skeleton traces of that conforming space (its ``Skeleton`` fields,
    numbered over the mesh by ``dofmap``), measured in the quotient norm
    of its parent, the conforming space of the family that
    ``_INTERFACE_KINDS`` gives at ``parent_degree``.

    kind is the trace (``reference.trace_factor``) against the canonical
    facet normal: 'value' (scalar families), 'tangential' or 'normal'.
    Normal traces carry one unit of flux per facet area: the dof map's
    factors include the area of each function's facet, so the traces of
    a facet's functions along its canonical normal are the facet modal
    basis.

    Two conforming extensions differ by cell bubbles, so the norm is a
    sum over cells.  The parent (a Skeleton, never numbered over the
    mesh), the per-class quotient Grams and the facet trace mass with
    its factorization by ``factor`` (a sparse HPD factorization) are
    built on first use.
    """

    def __init__(self, mesh, slot, parent_degree, order, factor):
        self.kind, self.parent_family = _INTERFACE_KINDS[slot.family]
        self.mesh, self.key = mesh, (slot.family, slot.degree)
        self.parent_degree, self.order = parent_degree, order
        self._factor = factor
        self.tables, self.use, self.active, self.refs = _skeleton(
            mesh, slot.family, slot.degree, order)
        dm = conforming_map(mesh, self.tables.basis, skeleton=True)
        if self.kind == "normal":
            # every skeleton function of H(div) lies on one facet
            ents = self.tables.basis.dof_entities()
            dm = dm._replace(cell_factors=dm.cell_factors * mesh.facet_areas[
                mesh.cell_facet_ids[:, [ents[k][1] for k in self.use]]])
        self.dofmap = dm

    @cached_property
    def parent(self):
        """The parent space's Skeleton."""
        return _skeleton(self.mesh, self.parent_family, self.parent_degree,
                         self.order)

    @cached_property
    def mass(self):
        """The slot's sparse facet trace mass matrix."""
        return trace_mass(self)

    @cached_property
    def mass_lu(self):
        return self._factor(self.mass)

    @cached_property
    def cell_grams(self):
        """(nclasses, n, n) quotient Grams Q = E^T S E of the slot's local
        functions, one per shape class, in local coefficients.

        E (np, n) holds the coefficients over the parent skeleton
        functions that reproduce the slot's traces on the reference
        cell (to 1e-8 of their squared norms plus 1e-13, or this raises)
        and on every cell, pushed by the same map.  A cell's Q in global
        coefficients is f_K Q[cls_K] f_K with its dof factors f_K: a
        slot's and a parent's functions on one facet carry the same
        factor, so parent factors F_K would give F_K E = E f_K."""
        P = self.parent
        ti, tp = (_reference_traces(t, self.kind) for t in (self, P))
        E = np.linalg.lstsq(tp.T, ti.T, rcond=None)[0]
        r2, tn2 = (np.sum(t ** 2, axis=1) for t in (ti - E.T @ tp, ti))
        j = np.argmax(r2 - 1e-8 * tn2)
        if r2[j] > 1e-8 * tn2[j] + 1e-13:
            raise RuntimeError(
                f"interface trace not recoverable in the parent space "
                f"(residual {r2[j]:.3e} vs norm {tn2[j]:.3e})")
        Q = E.T @ skeleton_schur(P.tables, P.use) @ E
        return 0.5 * (Q + np.swapaxes(Q, 1, 2))


def _reference_traces(skel, kind):
    """(n, m) traces of the kind of a Skeleton's n functions on the facets
    of the reference cell, at the facet rule's points scaled by the
    square roots of its weights: products of rows are facet integrals."""
    dim = skel.tables.mesh.dim
    out = []
    for lf, f in enumerate(local_facets(dim)):
        tab, w = reference_table(skel.refs[lf])
        tab = tab @ trace_factor(kind, facet_outward_normal(dim, f))
        t = np.zeros((len(skel.use),) + tab.shape[1:])
        t[skel.active[lf]] = tab * np.sqrt(w)[:, None]
        out.append(t.reshape(len(t), -1))
    return np.concatenate(out, axis=1)


def _facet_traces(A):
    """The traces of an interface space on each facet once, through its
    first owning cell, in groups of bounded size of the owners that see
    it as one local facet lf.  Per group: lf, the owners, the canonical
    facet normals, the traces of the functions with a trace there as a
    (reference operand, factor) term, and their (F, na) orientation
    factors and global dofs."""
    mesh, tables, dm = A.mesh, A.tables, A.dofmap
    owners = facet_owners(mesh)
    nbytes = max(tables.table("val", lf).nbytes
                 for lf in range(mesh.dim + 1))
    for lf, act in enumerate(A.active):
        owned = owners[owners[:, 1] == lf, 0]
        for part in cell_groups(len(owned), nbytes):
            cells = owned[part]
            n = mesh.facet_normals[mesh.cell_facet_ids[cells, lf]]
            F = tables.factor("val", cells) @ trace_factor(A.kind, n)
            yield (lf, cells, n, (A.refs[lf], F),
                   dm.cell_factors[cells][:, act], dm.cell_dofs[cells][:, act])


def trace_mass(A):
    """Sparse facet-trace mass matrix of an interface space.

    Entry (i, j) is sum over facets of int tr(phi_i) . tr(phi_j).  Each
    facet is visited once through its first owning cell, so the space
    must produce single-valued traces there.
    """
    parts = []
    for lf, cells, _, x, f, dofs in _facet_traces(A):
        M = _contract([(x, x)], A.tables.facet_scale(cells, lf))
        parts.append((M * f[:, :, None] * f[:, None, :], dofs, dofs))
    n = A.dofmap.ndofs
    return _block_matrix(parts, (n, n))


def trace_rhs(A, target):
    """Projection rhs b_i = sum over facets of int target . conj(tr phi_i)
    of an interface space.

    With the real-valued trace basis this is the right-hand side of the
    facet least-squares fit M c = b whose solution represents target.
    ``target(x, n)`` returns (P,) or (P, ncomp) values at P physical
    facet quadrature points x (P, dim) with canonical facet normals n
    (P, dim).
    """
    tables, idx, vals = A.tables, [], []
    nq = len(tables.frule.weights)
    for lf, cells, n, term, f, ia in _facet_traces(A):
        x = tables.physical_facet_points(cells, lf).reshape(-1, n.shape[1])
        t = np.asarray(target(x, np.repeat(n, nq, axis=0)))
        m = _moments(t.reshape(len(cells), nq, -1), term,
                     tables.facet_scale(cells, lf))
        idx.append(ia.ravel())
        vals.append((m * f).ravel())
    return _accumulate(np.concatenate(idx), np.concatenate(vals),
                       A.dofmap.ndofs)


def skeleton_schur(tables, use):
    """(nclasses, ns, ns) Schur complements of the graph Grams of a
    conforming basis onto its skeleton functions ``use``, interior
    functions eliminated, one per shape class of the mesh, in local
    coefficients."""
    interior = [k for k in range(tables.basis.nfuncs) if k not in set(use)]
    reps = tables.geo.shape_classes[0]
    S = np.empty((len(reps), len(use), len(use)))
    for part in tables.groups(len(reps)):
        M = _cell_grams(tables, reps[part])
        S[part] = M[:, use][:, :, use]
        if interior:
            Mis = M[:, interior][:, :, use]
            S[part] -= np.swapaxes(Mis, -1, -2) @ np.linalg.solve(
                M[:, interior][:, :, interior], Mis)
    return S


def skeleton_quotient_apply(Q, cls, dofmap, v):
    """Minimum-energy-extension energy of a coefficient vector v of an
    interface slot, from the per-class quotient Grams Q of its space
    (``InterfaceSpace.cell_grams``) and the class cls of every cell.

    The parent graph norm is minimized over all interior completions;
    interior dofs are cell-local, so the minimization splits per cell.
    The energy is the real part of c^H Q c, and the real stack Q meets
    the real and imaginary parts of a complex v apart.
    """
    c = v[dofmap.cell_dofs] * dofmap.cell_factors
    Qc = class_apply(Q, cls, c, cell_groups(len(c), Q[0].nbytes))
    return max(float(np.sum(c.conj() * Qc).real), 0.0)


def skeleton_quotient_gram(Q, cls, dofmap):
    """Sparse quotient-norm Gram of an interface slot: the sum of its
    cells' quotient Grams (as for ``skeleton_quotient_apply``)."""
    return class_matrix(Q, cls, dofmap.cell_dofs, dofmap.cell_factors,
                        dofmap.ndofs)
