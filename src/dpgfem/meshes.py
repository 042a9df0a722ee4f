"""Simplicial meshes: construction, refinement and plain-text interchange.

Meshes are immutable.  Cells store ascending global vertex ids; facet
orientation is derived from geometry (a canonical normal fixed by the
sorted facet vertices), so the two cells sharing a facet always see
opposite orientation signs.  Marked refinement bisects the longest edge
in 2D and 3D alike, so a mesh, and the file it is written to, fixes
every later refinement.
"""

from __future__ import annotations

import heapq
import math
import numbers
import weakref
from functools import cached_property

import numpy as np

from .simplex import local_edges, local_facets

_STRUCTURED_DOMAINS = ("unit-square", "unit-cube", "l-shape")
# a cell with |det J| <= _FLAT diam^dim is flat, whatever its size
_FLAT = 1e-14


class SimplicialMesh:
    """A conforming simplicial mesh in 2 or 3 dimensions.

    Parameters
    ----------
    dim : int
        Geometric dimension, 2 or 3.
    vertices : array_like, shape (nvertices, dim)
    cells : array_like, shape (ncells, dim + 1)
        Global vertex ids; rows are sorted ascending on construction.
    boundary_tags : dict, optional
        Facet id to integer tag, boundary facets only.
    parents : array_like, optional
        For refined meshes, the generating cell id in the previous mesh.

    A mesh carries no refinement state: ``refine_marked`` bisects by
    geometry alone, so the vertices and cells fix every later refinement.
    """

    def __init__(self, dim, vertices, cells, boundary_tags=None, parents=None):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = dim
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise ValueError("vertices must have shape (nvertices, dim)")
        bad = np.flatnonzero(~np.isfinite(self.vertices).all(axis=1))
        if len(bad):
            raise ValueError(f"vertex {bad[0]} has a non-finite coordinate: "
                             f"{self.vertices[bad[0]].tolist()}")
        cells = np.array(cells, dtype=int)
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise ValueError("cells must have shape (ncells, dim + 1)")
        if cells.size and (cells.min() < 0 or cells.max() >= len(self.vertices)):
            raise ValueError("cell vertex id out of range")
        self.cells = np.sort(cells, axis=1)
        if np.any(np.diff(self.cells, axis=1) == 0):
            raise ValueError("cell with repeated vertex")
        self._build_facets()
        absdet = self.geometry.absdet
        flat = np.flatnonzero(absdet <= _FLAT * self.cell_diameters ** dim)
        if len(flat):
            ci = flat[0]
            raise ValueError(
                f"degenerate cell {ci} with vertices {self.cells[ci].tolist()}: "
                f"|det J| = {absdet[ci]:.3g} is at most {_FLAT:g} diam^{dim}")
        self._set_tags({} if boundary_tags is None else boundary_tags)
        if parents is None:
            parents = np.arange(len(self.cells))
        self.parents = np.asarray(parents, dtype=int)
        for arr in (self.vertices, self.cells, self.facets, self.facet_cells,
                    self.facet_local, self.cell_facet_ids, self.parents):
            arr.flags.writeable = False

    def _build_facets(self):
        """Number the facets in order of first appearance among the cells'
        local facets; each has one (boundary) or two (cell, local facet)."""
        nlf = self.dim + 1
        keys = self.cells[:, local_facets(self.dim)].reshape(-1, self.dim)
        first, count, fid = _first_seen(_row_codes(keys))
        if np.any(count > 2):
            bad = keys[first[np.argmax(count > 2)]]
            raise ValueError(f"non-manifold facet {tuple(bad.tolist())}")
        # local facet rows grouped by facet, each group in cell order
        rows = np.argsort(fid, kind="stable")
        start = np.cumsum(count) - count
        side = np.stack([rows[start], rows[np.minimum(start + 1, len(rows) - 1)]],
                        axis=1)
        side[count == 1, 1] = -1
        self.facets = keys[first]
        self.cell_facet_ids = fid.reshape(-1, nlf)
        self.facet_cells = np.where(side >= 0, side // nlf, -1)
        self.facet_local = np.where(side >= 0, side % nlf, -1)

    def _set_tags(self, tags):
        """Attach boundary tags, facet id to tag: the constructor's, then
        those that each builder derives after construction."""
        for fid in tags:
            if (isinstance(fid, bool) or not isinstance(fid, numbers.Integral)
                    or not 0 <= fid < self.nfacets):
                raise ValueError(f"tag on facet id {fid!r}, not in 0 to "
                                 f"nfacets - 1 = {self.nfacets - 1}")
        fids = np.fromiter(tags, dtype=int, count=len(tags))
        inner = fids[self.facet_cells[fids, 1] != -1]
        if len(inner):
            raise ValueError(f"tag on interior facet {inner[0]} with vertices "
                             f"{self.facets[inner[0]].tolist()}")
        self.boundary_tags = dict(tags)

    # -- basic counts -------------------------------------------------

    @property
    def nvertices(self):
        return len(self.vertices)

    @property
    def ncells(self):
        return len(self.cells)

    @property
    def nfacets(self):
        return len(self.facets)

    @cached_property
    def boundary_facets(self):
        return np.flatnonzero(self.facet_cells[:, 1] == -1)

    # -- geometry -----------------------------------------------------

    @cached_property
    def geometry(self):
        """The affine maps of the cells (``MeshGeometry``), built once."""
        return MeshGeometry(self)

    @cached_property
    def signed_volumes(self):
        return self.geometry.det / math.factorial(self.dim)

    @cached_property
    def cell_volumes(self):
        return np.abs(self.signed_volumes)

    @cached_property
    def cell_diameters(self):
        ends = self.cells[:, np.array(local_edges(self.dim))]
        d = self.vertices[ends[..., 0]] - self.vertices[ends[..., 1]]
        return np.linalg.norm(d, axis=-1).max(axis=1)

    @cached_property
    def _facet_normal(self):
        """Canonical normals fixed by the sorted facet vertices, each of
        length (dim - 1)! times its facet's area."""
        v = self.vertices[self.facets]
        e = v[:, 1:] - v[:, :1]
        if self.dim == 2:
            return np.stack([e[:, 0, 1], -e[:, 0, 0]], axis=1)
        return np.cross(e[:, 0], e[:, 1])

    @cached_property
    def facet_areas(self):
        return (np.linalg.norm(self._facet_normal, axis=1)
                / math.factorial(self.dim - 1))

    @cached_property
    def facet_normals(self):
        """Canonical unit normals fixed by the sorted facet vertices."""
        n = self._facet_normal
        return n / np.linalg.norm(n, axis=1, keepdims=True)

    @cached_property
    def cell_facet_signs(self):
        """+1 where the canonical facet normal points out of the cell."""
        fids = self.cell_facet_ids
        # local facet lf of a cell leaves out one local vertex
        opposite = [next(v for v in range(self.dim + 1) if v not in f)
                    for f in local_facets(self.dim)]
        centroids = self.vertices[self.facets].mean(axis=1)
        outward = centroids[fids] - self.vertices[self.cells[:, opposite]]
        s = np.sum(self.facet_normals[fids] * outward, axis=-1)
        return np.where(s > 0, 1, -1)

    @cached_property
    def mesh_size(self):
        return float(self.cell_diameters.max())

    def __repr__(self):
        return (f"SimplicialMesh(dim={self.dim}, nvertices={self.nvertices}, "
                f"ncells={self.ncells}, nfacets={self.nfacets})")


def shape_regularity(mesh):
    """Max over cells of diameter divided by inradius."""
    surf = mesh.facet_areas[mesh.cell_facet_ids].sum(axis=1)
    inradius = mesh.dim * mesh.cell_volumes / surf
    return float((mesh.cell_diameters / inradius).max())


class MeshGeometry:
    """The cells' affine maps x = origin + J x_ref, their determinants
    and inverses (on first use, so a flat cell fails in the mesh, not in
    the inversion), outward facet normals and shape classes.  Per-cell
    lookups take a cell index, a slice or an index array of cells.  The
    mesh is held by a weak reference, so the two form no cycle."""

    def __init__(self, mesh):
        self.mesh = weakref.proxy(mesh)
        v = mesh.vertices[mesh.cells]
        self.origin = v[:, 0, :]
        self.J = np.swapaxes(v[:, 1:, :] - v[:, :1, :], 1, 2)  # (nc, d, d)
        self.det = np.linalg.det(self.J)
        self.absdet = np.abs(self.det)

    @cached_property
    def Jinv(self):
        return np.linalg.inv(self.J)

    @cached_property
    def metric(self):
        """J^T J and sign det J of every cell.  Every family is Piola-mapped
        (``reference.value_factor``), so the products of two pushed tables
        read J only through these: a cell and its rotation, J and QJ with
        Q orthogonal and det Q = 1, have the same cell Grams."""
        return np.swapaxes(self.J, 1, 2) @ self.J, np.sign(self.det)

    @cached_property
    def shape_classes(self):
        """Classes of cells with the same metric, on which every cell Gram
        of a basis is the same up to rounding (``cell_classes``)."""
        return cell_classes(*self.metric)

    def map_points(self, ci, ref_points):
        return self.origin[ci][..., None, :] + ref_points @ np.swapaxes(
            self.J[ci], -1, -2)

    def outward_normal(self, ci, lf):
        """Unit outward normals of local facets lf of cells ci."""
        fid = self.mesh.cell_facet_ids[ci, lf]
        sign = self.mesh.cell_facet_signs[ci, lf]
        return sign[..., None] * self.mesh.facet_normals[fid]


def class_keys(*values):
    """The (ncells, k) rows of ``values`` (real arrays with the cells on
    their first axis), one per cell, with 0.0 added so that -0.0 and
    +0.0 are the same bytes."""
    return np.ascontiguousarray(np.concatenate(
        [np.reshape(v, (len(v), -1)) for v in values], axis=1,
        dtype=float)) + 0.0


def cell_classes(*values):
    """Classes of cells whose ``values`` are the same bit for bit, up to
    the sign of zero (``class_keys``): the first cell of each class, in
    ascending order, and the class index of every cell."""
    key = class_keys(*values)
    first, _, cls = _first_seen(
        key.view(np.dtype((np.void, key.itemsize * key.shape[1])))[:, 0])
    return first, cls


def _first_seen(keys):
    """Number the distinct entries of the 1-D ``keys`` in order of first
    appearance.

    Returns the first index of each, how often each occurs, and the
    number of every entry.
    """
    _, first, inverse, count = np.unique(keys, return_index=True,
                                         return_inverse=True, return_counts=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    return first[order], count[order], rank[inverse]


def _row_codes(rows):
    """One int64 per row of a nonnegative (m, k) integer array: the row
    read as k digits in base max + 1, so that the codes are equal and
    ordered as the rows are.  Where one more digit could overflow, the
    codes so far are first replaced by their ranks, which keeps every
    code below m * (max + 1)."""
    rows = np.asarray(rows, dtype=np.int64)
    base = int(rows.max(initial=0)) + 1
    code = rows[:, 0]
    for digit in rows.T[1:]:
        if (int(code.max(initial=0)) + 1) * base > np.iinfo(np.int64).max:
            code = np.unique(code, return_inverse=True)[1]
        code = code * base + digit
    return code


def _find_rows(table, rows):
    """Index of each of ``rows`` in ``table`` (distinct rows of
    nonnegative integers), -1 if absent."""
    inside = np.all((rows >= 0) & (rows <= table.max(initial=-1)), axis=1)
    _, inverse = np.unique(_row_codes(np.concatenate([table, rows[inside]])),
                           return_inverse=True)
    where = np.full(len(inverse), -1)
    where[inverse[:len(table)]] = np.arange(len(table))
    found = np.full(len(rows), -1)
    found[inside] = where[inverse[len(table):]]
    return found


def _longest_edges(vertices, cells):
    """Per-cell longest edge as a sorted vertex pair; ties pick the
    lexicographically smallest pair.  ``cells`` rows are ascending."""
    pairs = np.array(local_edges(cells.shape[1] - 1))
    ends = cells[:, pairs]
    d = vertices[ends[..., 0]] - vertices[ends[..., 1]]
    # local edges are in lexicographic order, so argmax breaks ties
    pick = np.argmax(np.sqrt(np.sum(d * d, axis=-1)), axis=1)
    return ends[np.arange(len(cells)), pick]


# -- structured generators -------------------------------------------


def _tag_boundary(mesh, domain):
    """Tag boundary facets by the axis-aligned plane they lie on."""
    planes = [(0, 0.0, 1), (0, 1.0, 2), (1, 0.0, 3), (1, 1.0, 4)]
    if mesh.dim == 3:
        planes += [(2, 0.0, 5), (2, 1.0, 6)]
    if domain == "l-shape":
        planes += [(0, 0.5, 7), (1, 0.5, 8)]
    fids = mesh.boundary_facets
    pts = mesh.vertices[mesh.facets[fids]]
    on = np.stack([np.all(np.abs(pts[:, :, axis] - value) < 1e-12, axis=1)
                   for axis, value, _ in planes], axis=1)
    if not np.all(on.any(axis=1)):
        raise ValueError("boundary facet off the expected planes")
    tags = np.array([t for _, _, t in planes])[np.argmax(on, axis=1)]
    return dict(zip(fids.tolist(), tags.tolist()))


# the five tetrahedra of a unit cube as corner offsets (i, j, k): four at
# alternating corners and one in the centre; mirrored in i on odd cubes so
# that face diagonals match between neighbours
_CUBE_TETS = np.array([
    [(1, 0, 0), (0, 0, 0), (1, 1, 0), (1, 0, 1)],
    [(0, 1, 0), (0, 0, 0), (1, 1, 0), (0, 1, 1)],
    [(0, 0, 1), (0, 0, 0), (1, 0, 1), (0, 1, 1)],
    [(1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
    [(0, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)],
])


def _integer(name, value):
    """value, checked to be a Python or numpy integer and not a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return value


def build_structured(domain, n):
    """Build a structured mesh of a named domain.

    Domains: ``unit-square`` (2D), ``unit-cube`` (3D, five tetrahedra per
    cube with alternating parity), ``l-shape`` (2D unit square minus the
    upper-right quadrant; n must be even so the cut is exact).
    """
    if domain not in _STRUCTURED_DOMAINS:
        raise ValueError(f"unknown domain {domain!r}")
    if _integer("n", n) < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if domain == "l-shape" and n % 2 != 0:
        raise ValueError("l-shape needs even n for an exact quadrant cut")
    nv = n + 1
    if domain == "unit-cube":
        # vertex (i, j, k) is (k nv + j) nv + i; cubes run k, j, i
        k, j, i = np.unravel_index(np.arange(nv ** 3), (nv, nv, nv))
        verts = np.stack([i, j, k], axis=1) / n
        ck, cj, ci = np.unravel_index(np.arange(n ** 3), (n, n, n))
        flip = ((ci + cj + ck) % 2 == 1)[:, None, None]
        oi, oj, ok = np.moveaxis(_CUBE_TETS, -1, 0)
        oi = np.where(flip, 1 - oi, oi)
        cells = (((ck[:, None, None] + ok) * nv + cj[:, None, None] + oj) * nv
                 + ci[:, None, None] + oi).reshape(-1, 4)
        mesh = SimplicialMesh(3, verts, cells)
    else:
        # vertex (i, j) is j nv + i before the l-shape drops its quadrant;
        # squares run j, i and split along their (a, d) diagonal
        j, i = np.divmod(np.arange(nv * nv), nv)
        keep = np.ones(nv * nv, dtype=bool)
        sj, si = np.divmod(np.arange(n * n), n)
        squares = np.ones(n * n, dtype=bool)
        if domain == "l-shape":
            keep = (i <= n // 2) | (j <= n // 2)
            squares = (si < n // 2) | (sj < n // 2)
        vid = np.cumsum(keep) - 1
        a = (sj * nv + si)[squares]
        a, b, c, d = vid[a], vid[a + 1], vid[a + nv], vid[a + nv + 1]
        cells = np.stack([a, b, d, a, d, c], axis=1).reshape(-1, 3)
        mesh = SimplicialMesh(2, np.stack([i, j], axis=1)[keep] / n, cells)
    mesh._set_tags(_tag_boundary(mesh, domain))
    return mesh


def _inherit_tags(old, new, roots):
    """Carry boundary tags through one refinement.

    ``roots[v]`` lists the old vertices new vertex ``v`` descends from,
    padded with -1.  A boundary facet of the new mesh lies in the old
    boundary facet its vertices' roots span and takes that facet's tag,
    if it has one; a new boundary facet inside no old one is an error.
    """
    if not old.boundary_tags:
        return {}
    fids = new.boundary_facets
    r = np.sort(roots[new.facets[fids]].reshape(len(fids), -1), axis=1)
    fresh = r >= 0
    fresh[:, 1:] &= r[:, 1:] != r[:, :-1]
    spans = fresh.sum(axis=1) == old.dim
    bfids = old.boundary_facets
    hit = np.full(len(fids), -1)
    hit[spans] = _find_rows(old.facets[bfids],
                            r[spans][fresh[spans]].reshape(-1, old.dim))
    if np.any(hit < 0):
        raise ValueError("boundary facet lost its tag during refinement")
    tag = np.zeros(old.nfacets, dtype=int)
    tagged = np.zeros(old.nfacets, dtype=bool)
    keys = list(old.boundary_tags)
    tag[keys] = list(old.boundary_tags.values())
    tagged[keys] = True
    parent = bfids[hit]
    keep = tagged[parent]
    return dict(zip(fids[keep].tolist(), tag[parent[keep]].tolist()))


# red refinement: children as columns of [cell vertices, edge midpoints],
# with the midpoints in local edge order
_RED_2D = np.array([(0, 3, 4), (1, 3, 5), (2, 4, 5), (3, 4, 5)])
_RED_3D_CORNERS = np.array([(0, 4, 5, 6), (1, 4, 7, 8), (2, 5, 7, 9),
                            (3, 6, 8, 9)])
# the octahedron's three diagonals as local edge pairs, and for each the
# other four midpoints in cyclic order (neighbours share a cell vertex)
_OCT_DIAGONALS = np.array([(0, 5), (1, 4), (2, 3)])
_OCT_RINGS = np.array([(1, 2, 4, 3), (0, 2, 5, 3), (0, 1, 5, 4)])
_RED_3D_OCTS = 4 + np.stack([
    np.column_stack([np.repeat(diag[None], 4, axis=0), ring, np.roll(ring, -1)])
    for diag, ring in zip(_OCT_DIAGONALS, _OCT_RINGS)])


def refine_uniform(mesh):
    """Red refinement: 1:4 in 2D, 1:8 in 3D.

    In 3D the interior octahedron is split along its shortest diagonal
    (ties broken by diagonal index) so children stay shape regular.
    """
    dim, nv, nc = mesh.dim, mesh.nvertices, mesh.ncells
    ends = mesh.cells[:, np.array(local_edges(dim))]
    # midpoints numbered in order of first appearance
    first, _, mid_id = _first_seen(_row_codes(ends.reshape(-1, 2)))
    parent = ends.reshape(-1, 2)[first]
    mids = mesh.vertices[parent]
    verts = np.concatenate([mesh.vertices, 0.5 * (mids[:, 0] + mids[:, 1])])
    points = np.concatenate([mesh.cells, nv + mid_id.reshape(nc, -1)], axis=1)
    if dim == 2:
        cells = points[:, _RED_2D]
    else:
        m = verts[points[:, 4:]]
        d = m[:, _OCT_DIAGONALS[:, 0]] - m[:, _OCT_DIAGONALS[:, 1]]
        pick = np.argmin(np.sum(d * d, axis=-1), axis=1)
        cells = np.concatenate([
            points[:, _RED_3D_CORNERS],
            np.take_along_axis(points[:, None, :], _RED_3D_OCTS[pick], axis=2)],
            axis=1)
    roots = np.full((len(verts), 2), -1)
    roots[:nv, 0] = np.arange(nv)
    roots[nv:] = parent
    new_mesh = SimplicialMesh(dim, verts, cells.reshape(-1, dim + 1),
                              parents=np.repeat(np.arange(nc), cells.shape[1]))
    new_mesh._set_tags(_inherit_tags(mesh, new_mesh, roots))
    return new_mesh


def refine_marked(mesh, marked):
    """Bisect the marked cells and close the mesh so it stays conforming.

    Every cell, in 2D and 3D, is bisected at its longest edge (Rivara
    1984), ties going to the lexicographically smallest vertex pair, so
    the bisection is a function of the geometry alone.  On the
    right-isosceles triangles of ``build_structured``, ``refine_uniform``
    and bisection itself this is the hypotenuse, the edge newest-vertex
    bisection would pick.  The closure sweeps the live cells in order,
    bisecting each one that has an edge with a midpoint, until a sweep
    bisects none; an edge-to-cells map finds the cells that a new
    midpoint leaves hanging.
    """
    ids = set()
    for m in marked:
        if not isinstance(m, (int, np.integer)) or isinstance(m, bool):
            raise ValueError(f"marked cell id {m!r} is not an integer")
        if m < 0 or m >= mesh.ncells:
            raise ValueError(f"marked cell id {m} out of range")
        ids.add(int(m))
    marked = sorted(ids)
    if not marked:
        return mesh

    dim, nv = mesh.dim, mesh.nvertices
    pairs = local_edges(dim)
    points = []       # coordinates of the new vertices
    roots = []        # the old vertices each new vertex descends from
    midpoint = {}     # sorted edge -> midpoint vertex id
    new_on_edge = {}  # sorted edge -> new cells on it
    # old cells on an edge: local edge rows sorted by the edge's code
    ends = mesh.cells[:, np.array(pairs)]
    codes = (ends[..., 0] * nv + ends[..., 1]).ravel()
    by_code = np.argsort(codes, kind="stable")
    codes = codes[by_code]

    # working cells: vertices, root parent, longest edge (a new cell's is
    # found when it is bisected)
    edges = _longest_edges(mesh.vertices, mesh.cells).tolist()
    work = [(tuple(cell), ci, tuple(edge))
            for ci, (cell, edge) in enumerate(zip(mesh.cells.tolist(), edges))]
    alive = [True] * len(work)
    # a closure sweep bisects, in index order, the hanging cells in
    # (at, limit); cells that start hanging outside it wait in ``later``
    at, limit, heap, later, queued = -1, 0, [], set(), set()

    def coord(v):
        return mesh.vertices[v] if v < nv else points[v - nv]

    def root(v):
        return roots[v - nv] if v >= nv else (v,)

    def hang(idx):
        if alive[idx] and idx not in queued:
            queued.add(idx)
            if at < idx < limit:
                heapq.heappush(heap, idx)
            else:
                later.add(idx)

    def mid(a, b):
        m = midpoint.get((a, b))
        if m is None:
            m = nv + len(points)
            points.append(0.5 * (coord(a) + coord(b)))
            roots.append(tuple(sorted(set(root(a)) | set(root(b)))))
            midpoint[(a, b)] = m
            if b < nv:
                lo, hi = np.searchsorted(codes, [a * nv + b, a * nv + b + 1])
                for row in by_code[lo:hi].tolist():
                    hang(row // len(pairs))
            for idx in new_on_edge.get((a, b), ()):
                hang(idx)
        return m

    def add(vs, root_cell):
        idx = len(work)
        work.append((vs, root_cell, None))
        alive.append(True)
        edges = [(vs[i], vs[j]) for i, j in pairs]
        for e in edges:
            new_on_edge.setdefault(e, []).append(idx)
        if any(e in midpoint for e in edges):
            hang(idx)

    def bisect(idx):
        vs, root_cell, edge = work[idx]
        if edge is None:
            i, j = _longest_edges(np.array([coord(v) for v in vs]),
                                  np.arange(dim + 1)[None])[0]
            edge = (vs[i], vs[j])
        u, v = edge
        others = tuple(w for w in vs if w not in (u, v))
        alive[idx] = False
        later.discard(idx)
        m = mid(u, v)
        add(tuple(sorted((u, m) + others)), root_cell)
        add(tuple(sorted((v, m) + others)), root_cell)

    for ci in marked:
        bisect(ci)

    cap = 200 * mesh.ncells + 10000
    steps = 0
    while later:
        at, limit, heap = -1, len(work), sorted(later)
        later.clear()
        while heap:
            at = heapq.heappop(heap)
            bisect(at)
            steps += 1
            if steps > cap:
                raise RuntimeError("refinement closure failed to terminate")

    live = [rec for rec, on in zip(work, alive) if on]
    new_mesh = SimplicialMesh(
        dim, np.concatenate([mesh.vertices, np.reshape(points, (-1, dim))]),
        [vs for vs, _, _ in live], parents=[r for _, r, _ in live])
    width = max(len(r) for r in roots)
    table = np.full((new_mesh.nvertices, width), -1)
    table[:nv, 0] = np.arange(nv)
    for k, r in enumerate(roots):
        table[nv + k, :len(r)] = r
    new_mesh._set_tags(_inherit_tags(mesh, new_mesh, table))
    return new_mesh


def check_conforming(mesh, tol=1e-10):
    """Verify there are no hanging vertices.

    Facet multiplicity (1 or 2 cells) is enforced at construction; the
    remaining failure mode is a vertex other than its own sitting on a
    once-counted facet, inside it or on its boundary, which this check
    detects geometrically.  All (boundary facet, vertex) pairs are
    tested at once, in blocks of facets; the error names the first
    offender in facet, then vertex, order.
    """
    scale = mesh.mesh_size
    verts = mesh.vertices
    fids = mesh.boundary_facets
    size = max(1, 2 ** 16 // mesh.nvertices)
    for start in range(0, len(fids), size):
        block = fids[start:start + size]
        fv = mesh.facets[block]
        a = verts[fv[:, 0]]
        d = verts - a[:, None, :]  # (facets, vertices, dim)
        e = verts[fv[:, 1:]] - a[:, None, :]  # (facets, dim - 1, dim)
        # barycentric coordinates (but the first) of the projection onto
        # the facet's line or plane, tested on the closed facet
        et = np.swapaxes(e, 1, 2)
        lam = np.einsum("fij,fvj->fvi", np.linalg.inv(e @ et), d @ et)
        height = np.einsum("fvd,fd->fv", d, mesh.facet_normals[block])
        bad = ((np.abs(height) <= tol * scale) & np.all(lam > -tol, axis=-1)
               & (lam.sum(axis=-1) < 1 + tol))
        bad[np.arange(len(fv))[:, None], fv] = False
        if bad.any():
            i, vid = np.unravel_index(np.argmax(bad), bad.shape)
            raise ValueError(f"hanging vertex {vid} on facet {block[i]}")
    return True


# -- plain-text interchange ------------------------------------------


def write_mesh(mesh, path):
    """Write the plain-text mesh format.

    Line 1 is ``dpgmesh <dim> <nvertices> <ncells>``, followed by vertex
    coordinate lines (17 significant digits), cell vertex id lines and one
    ``tag`` line per tagged boundary facet.
    """
    lines = [f"dpgmesh {mesh.dim} {mesh.nvertices} {mesh.ncells}"]
    for v in mesh.vertices:
        lines.append(" ".join(f"{x:.17g}" for x in v))
    for cell in mesh.cells:
        lines.append(" ".join(str(int(i)) for i in cell))
    for fid in sorted(mesh.boundary_tags, key=lambda f: tuple(mesh.facets[f])):
        ids = " ".join(str(int(v)) for v in mesh.facets[fid])
        lines.append(f"tag {ids} {mesh.boundary_tags[fid]}")
    text = "\n".join(lines) + "\n"
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _mesh_fields(kind, line, n, convert, skip=0):
    """The n fields after the first ``skip`` of one vertex, cell or tag
    line, converted."""
    parts = line.split()[skip:]
    if len(parts) != n:
        raise ValueError(f"bad {kind} line: {line!r}")
    out = []
    for x in parts:
        try:
            out.append(convert(x))
        except ValueError:
            what = "a number" if convert is float else "an integer"
            raise ValueError(f"bad {kind} line: {line!r}: {x!r} is not "
                             f"{what}") from None
    return out


def read_mesh(path):
    """Read the plain-text mesh format written by :func:`write_mesh`."""
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path) as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty mesh file: the header line "
                         "'dpgmesh <dim> <nvertices> <ncells>' is missing")
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dpgmesh":
        raise ValueError("not a dpgmesh file")
    counts = []
    for name, raw in zip(("dim", "nvertices", "ncells"), head[1:]):
        try:
            counts.append(int(raw))
        except ValueError:
            raise ValueError(f"mesh header field {name} must be an integer, "
                             f"got {raw!r}") from None
        if counts[-1] < 0:
            raise ValueError(f"mesh header field {name} must be "
                             f"nonnegative, got {counts[-1]}")
    dim, nv, nc = counts
    k = len(lines) - 1
    if k < nv + nc:
        kind, k, n = ("vertex", k, nv) if k < nv else ("cell", k - nv, nc)
        raise ValueError(f"truncated mesh file: {kind} line {k + 1} of {n} "
                         f"is missing")
    verts = [_mesh_fields("vertex", ln, dim, float)
             for ln in lines[1:1 + nv]]
    cells = [_mesh_fields("cell", ln, dim + 1, int)
             for ln in lines[1 + nv:1 + nv + nc]]
    mesh = SimplicialMesh(dim, verts, cells)
    keys, tags = [], []
    for ln in lines[1 + nv + nc:]:
        if ln.split()[0] != "tag":
            raise ValueError(f"bad tag line: {ln!r}")
        *key, tag = _mesh_fields("tag", ln, dim + 1, int, skip=1)
        keys.append(sorted(key))
        tags.append(tag)
    fids = _find_rows(mesh.facets, np.array(keys, dtype=int).reshape(-1, dim))
    if np.any(fids < 0):
        raise ValueError(f"tag on a vertex set that is no facet: "
                         f"{keys[int(np.argmax(fids < 0))]}")
    tagged = {}
    for key, fid, tag in zip(keys, fids.tolist(), tags):
        if fid in tagged:
            raise ValueError(f"facet {key} is tagged twice: {tagged[fid]} "
                             f"and {tag}")
        tagged[fid] = tag
    mesh._set_tags(tagged)
    return mesh
