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
holds its dofs, facet operands, trace mass and quotient norm.

The slot Grams and the facet trace masses integrate two bases on
affine cells, so each is one contraction of per-cell factors with a
reference tensor (``reference._contract``), the same as the element
kernels; only data that vary over a facet are summed point by point.
A cell Gram depends only on the cell's Jacobian, so the natural Grams
and the skeleton Schur complements are computed once per class of
cells with bit-identical Jacobians (the mesh geometry's
``shape_classes``) and gathered to the cells.
"""

from __future__ import annotations

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


def _local_vertices(dim, kind, loc):
    """Local vertex tuple of a cell's local entity, None for the interior."""
    if kind == "vertex":
        return (loc,)
    if kind == "edge":
        return local_edges(dim)[loc]
    if kind == "face":
        return local_facets(dim)[loc]
    return None


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


def _accumulate(idx, vals, n):
    """Length-n sums of the values at the integer positions idx (arrays of
    one shape), each position's values added in the order given, as
    ``np.add.at`` adds them; complex values are summed by parts."""
    idx, vals = np.ravel(idx), np.ravel(vals)
    if not np.iscomplexobj(vals):
        return np.bincount(idx, weights=vals, minlength=n)
    out = np.empty(n, dtype=vals.dtype)
    out.real = np.bincount(idx, weights=vals.real, minlength=n)
    out.imag = np.bincount(idx, weights=vals.imag, minlength=n)
    return out


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
    blocks = M[cls]
    blocks *= f[:, :, None]
    blocks *= f[:, None, :]
    return _block_matrix([(blocks, dofmap.cell_dofs, dofmap.cell_dofs)],
                         (dofmap.ndofs, dofmap.ndofs))


def facet_owners(mesh):
    """First (cell, local facet) pair owning each facet, ascending cell id."""
    # cells are visited in ascending order when facets are numbered
    return np.stack([mesh.facet_cells[:, 0], mesh.facet_local[:, 0]], axis=1)


def _owner_groups(mesh, tables):
    """(lf, cells) groups of facets: each facet once, through its owner,
    the owners seeing it as local facet lf, in groups of bounded size."""
    owners = facet_owners(mesh)
    nbytes = max(tables.table("val", lf).nbytes
                 for lf in range(mesh.dim + 1))
    for lf in range(mesh.dim + 1):
        cells = owners[owners[:, 1] == lf, 0]
        for part in cell_groups(len(cells), nbytes):
            yield lf, cells[part]


# -- interface spaces ------------------------------------------------

# By family of an interface slot: its trace kind (reference.trace_factor),
# which its parent shares, and the family of the parent, whose quotient
# norm measures it.
_INTERFACE_KINDS = {
    "h1": ("value", "h1"),
    "hdiv": ("normal", "hdiv"),
    "hcurl": ("tangential", "hcurl"),
    "vec": ("tangential", "hcurl"),
}


class TraceField:
    """Facet traces of the skeleton functions of a conforming space.

    kind is the trace (``reference.trace_factor``) against the canonical
    facet normal: 'value' (scalar families), 'tangential' or 'normal'.
    Normal traces carry one unit of flux per facet area: the dof map's
    factors include the area of each function's facet, so the traces of
    a facet's functions along its canonical normal are the facet modal
    basis.  Per local facet lf, ``active[lf]`` holds the local positions
    of the functions with a trace there (a conforming function's entity
    lies in the facet's closure) and ``refs[lf]`` the reference operand
    of their values on it.
    """

    def __init__(self, mesh, family, degree, kind, order):
        self.mesh, self.kind, self.order = mesh, kind, order
        dim = mesh.dim
        basis = conforming_basis(family, degree, dim)
        self.tables = ElementTables(mesh, basis, order)
        self.dofmap = conforming_map(mesh, basis, skeleton=True)
        ents = basis.dof_entities()
        use = np.asarray(self.dofmap.local_functions)
        if kind == "normal":
            # every skeleton function of H(div) lies on one facet
            lfs = [ents[k][1] for k in use]
            self.dofmap.cell_factors *= mesh.facet_areas[
                mesh.cell_facet_ids[:, lfs]]
        verts = [_local_vertices(dim, *ents[k][:2]) for k in use]
        self.active, self.refs = [], []
        for lf, f in enumerate(local_facets(dim)):
            act = np.array([col for col, v in enumerate(verts)
                            if v is not None and set(v) <= set(f)], dtype=int)
            self.active.append(act)
            self.refs.append(self.tables.reference("val", lf,
                                                   tuple(use[act].tolist())))

    def facet_trace(self, cells, lf):
        """Traces on local facet lf of ``cells`` (an index array) of the
        local functions supported there: a (reference operand, factor)
        term, and the (F, na) orientation factors and global dofs."""
        act = self.active[lf]
        dofs = self.dofmap.cell_dofs[cells][:, act]
        n = self.mesh.facet_normals[self.mesh.cell_facet_ids[cells, lf]]
        F = self.tables.factor("val", cells) @ trace_factor(self.kind, n)
        return ((self.refs[lf], F), self.dofmap.cell_factors[cells][:, act],
                dofs)


class InterfaceSpace(TraceField):
    """The space of the interface slots of one (family, degree): traces
    of a parent space, the conforming space of the
    family that ``_INTERFACE_KINDS`` gives at ``parent_degree``, measured
    in its quotient norm.  Two conforming extensions differ by cell
    bubbles, so the norm is a sum over cells: the coefficients E_K of the
    slot's local functions over the parent skeleton functions
    (``embedding``) are measured by the Schur complement S_K of the
    parent graph Gram onto those, Q_K = E_K^T S_K E_K.  The parent
    traces, E, the Q_K and the facet trace mass with its factorization
    by ``factor`` (a sparse HPD factorization) are built on first use.
    """

    def __init__(self, mesh, slot, parent_degree, order, factor):
        kind, self.parent_family = _INTERFACE_KINDS[slot.family]
        super().__init__(mesh, slot.family, slot.degree, kind, order)
        self.key = (slot.family, slot.degree)
        self.parent_degree = parent_degree
        self._factor = factor

    def trace(self, v, n):
        """The trace of this kind, (P, r), of values v, (P,) or (P, ncomp),
        at P facet points with canonical facet normals n (P, dim)."""
        return np.einsum("pc,pcr->pr", np.reshape(v, (len(n), -1)),
                         trace_factor(self.kind, n))

    @cached_property
    def parent(self):
        """The skeleton traces of the parent space."""
        return TraceField(self.mesh, self.parent_family,
                          self.parent_degree, self.kind, self.order)

    @cached_property
    def mass(self):
        """The slot's sparse facet trace mass matrix."""
        return trace_mass(self.mesh, self.parent.tables, self)

    @cached_property
    def mass_lu(self):
        return self._factor(self.mass)

    @cached_property
    def embedding(self):
        """(np, ni) coefficients E over the parent skeleton functions
        that reproduce the slot's traces on the reference cell, to 1e-8
        of their squared norms plus 1e-13, or raise.  A slot's functions
        are parent functions pushed by the same map and scaled by the
        same dof factors, so E_K = E on every cell."""
        ti, tp = _reference_traces(self), _reference_traces(self.parent)
        E = np.linalg.lstsq(tp.T, ti.T, rcond=None)[0]
        r2, tn2 = (np.sum(t ** 2, axis=1) for t in (ti - E.T @ tp, ti))
        j = np.argmax(r2 - 1e-8 * tn2)
        if r2[j] > 1e-8 * tn2[j] + 1e-13:
            raise RuntimeError(
                f"interface trace not recoverable in the parent space "
                f"(residual {r2[j]:.3e} vs norm {tn2[j]:.3e})")
        return E

    @cached_property
    def cell_grams(self):
        """(ncells, n, n) per-cell quotient Grams Q_K = E_K^T S_K E_K of
        the slot's local functions, in global coefficients."""
        P, E = self.parent, self.embedding
        Q = E.T @ skeleton_schur(P.tables, P.dofmap) @ E
        return 0.5 * (Q + np.swapaxes(Q, 1, 2))


def _reference_traces(T):
    """(n, m) traces of a trace field's n local functions on the facets
    of the reference cell, at the facet rule's points scaled by the
    square roots of its weights: products of rows are facet integrals."""
    dim = T.mesh.dim
    out = []
    for lf, f in enumerate(local_facets(dim)):
        tab, w = reference_table(T.refs[lf])
        tab = tab @ trace_factor(T.kind, facet_outward_normal(dim, f))
        t = np.zeros((T.dofmap.cell_dofs.shape[1],) + tab.shape[1:])
        t[T.active[lf]] = tab * np.sqrt(w)[:, None]
        out.append(t.reshape(len(t), -1))
    return np.concatenate(out, axis=1)


def trace_mass(mesh, tables, A):
    """Sparse facet-trace mass matrix of a trace field.

    Entry (i, j) is sum over facets of int tr(phi_i) . tr(phi_j).  Each
    facet is visited once through its first owning cell, so the field
    must produce single-valued traces there.  ``tables`` supplies the
    facet area scales and the owner groups (any tables of the mesh built
    with the shared facet rule).
    """
    parts = []
    for lf, cells in _owner_groups(mesh, tables):
        x, f, dofs = A.facet_trace(cells, lf)
        M = _contract([(x, x)], tables.facet_scale(cells, lf))
        parts.append((M * f[:, :, None] * f[:, None, :], dofs, dofs))
    n = A.dofmap.ndofs
    return _block_matrix(parts, (n, n))


def trace_rhs(mesh, tables, A, target):
    """Projection rhs b_i = sum over facets of int target . conj(tr phi_i).

    With the real-valued trace basis this is the right-hand side of the
    facet least-squares fit M c = b whose solution represents target.
    ``target(x, n)`` returns (P,) or (P, ncomp) values at P physical
    facet quadrature points x (P, dim) with canonical facet normals n
    (P, dim).
    """
    idx, vals = [], []
    nq = len(tables.frule.weights)
    for lf, cells in _owner_groups(mesh, tables):
        x = tables.physical_facet_points(cells, lf).reshape(-1, mesh.dim)
        n = mesh.facet_normals[mesh.cell_facet_ids[cells, lf]]
        t = np.asarray(target(x, np.repeat(n, nq, axis=0)))
        term, f, ia = A.facet_trace(cells, lf)
        m = _moments(t.reshape(len(cells), nq, -1), term,
                     tables.facet_scale(cells, lf))
        idx.append(ia.ravel())
        vals.append((m * f).ravel())
    return _accumulate(np.concatenate(idx), np.concatenate(vals),
                       A.dofmap.ndofs)


def skeleton_schur(tables, skel_map):
    """(ncells, ns, ns) Schur complements of the parent graph Grams onto
    the skeleton functions, interior functions eliminated, in global
    coefficients (orientation factors applied)."""
    use = list(skel_map.local_functions)
    interior = [k for k in range(tables.basis.nfuncs) if k not in set(use)]
    reps, cls = tables.geo.shape_classes
    f = skel_map.cell_factors
    S = np.empty((len(reps),) + f.shape[-1:] * 2)
    for part in tables.groups(len(reps)):
        M = _cell_grams(tables, reps[part])
        S[part] = M[:, use][:, :, use]
        if interior:
            Mis = M[:, interior][:, :, use]
            S[part] -= np.swapaxes(Mis, -1, -2) @ np.linalg.solve(
                M[:, interior][:, :, interior], Mis)
    out = S[cls]
    out *= f[:, :, None]
    out *= f[:, None, :]
    return out


def skeleton_quotient_apply(blocks, dofmap, v):
    """Minimum-energy-extension energy of a coefficient vector v of a
    slot, from the slot's per-cell quotient Grams ``blocks`` (ncells,
    n, n) in global coefficients.

    The parent graph norm is minimized over all interior completions;
    interior dofs are cell-local, so the minimization splits per cell.
    The real part of c^H Q c is x^T Q x + y^T Q y for c = x + iy, so the
    real stack Q is applied to real vectors only.
    """
    c = v[dofmap.cell_dofs]
    energy = sum((float(np.sum(part * (blocks @ part[..., None])[..., 0]))
                  for part in (c.real, c.imag) if part.any()), 0.0)
    return max(energy, 0.0)


def skeleton_quotient_gram(blocks, dofmap):
    """Sparse quotient-norm Gram of a slot: the sum of its per-cell
    quotient Grams ``blocks`` (as for ``skeleton_quotient_apply``)."""
    n = dofmap.ndofs
    return _block_matrix([(blocks, dofmap.cell_dofs, dofmap.cell_dofs)],
                         (n, n))
