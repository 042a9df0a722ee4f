"""Simplicial meshes: construction, refinement and plain-text interchange.

Meshes are immutable.  Cells store ascending global vertex ids; facet
orientation is derived from geometry (a canonical normal fixed by the
sorted facet vertices), so the two cells sharing a facet always see
opposite orientation signs.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

from .simplex import local_facets

_STRUCTURED_DOMAINS = ("unit-square", "unit-cube", "l-shape")


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
    refinement_edges : array_like, optional
        Per-cell bisection edge as a sorted global vertex pair (2D only).
    """

    def __init__(self, dim, vertices, cells, boundary_tags=None, parents=None,
                 refinement_edges=None):
        if dim not in (2, 3):
            raise ValueError("dim must be 2 or 3")
        self.dim = dim
        self.vertices = np.array(vertices, dtype=float)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != dim:
            raise ValueError("vertices must have shape (nvertices, dim)")
        cells = np.array(cells, dtype=int)
        if cells.ndim != 2 or cells.shape[1] != dim + 1:
            raise ValueError("cells must have shape (ncells, dim + 1)")
        if cells.size and (cells.min() < 0 or cells.max() >= len(self.vertices)):
            raise ValueError("cell vertex id out of range")
        for row in cells:
            if len(set(row.tolist())) != dim + 1:
                raise ValueError("cell with repeated vertex")
        self.cells = np.sort(cells, axis=1)
        self._build_facets()
        vols = self.cell_volumes
        if np.any(vols <= 0.0):
            raise ValueError("degenerate cell with zero volume")
        if boundary_tags is None:
            boundary_tags = {}
        self.boundary_tags = dict(boundary_tags)
        for fid in self.boundary_tags:
            if self.facet_cells[fid, 1] != -1:
                raise ValueError("tag on interior facet")
        if parents is None:
            parents = np.arange(len(self.cells))
        self.parents = np.asarray(parents, dtype=int)
        if refinement_edges is not None:
            refinement_edges = np.asarray(refinement_edges, dtype=int)
        self.refinement_edges = refinement_edges
        for arr in (self.vertices, self.cells, self.facets, self.facet_cells,
                    self.facet_local, self.parents):
            arr.flags.writeable = False

    def _build_facets(self):
        lf = local_facets(self.dim)
        index = {}
        facets = []
        facet_cells = []
        facet_local = []
        for ci, cell in enumerate(self.cells):
            for li, combo in enumerate(lf):
                key = tuple(cell[list(combo)])
                fid = index.get(key)
                if fid is None:
                    index[key] = len(facets)
                    facets.append(key)
                    facet_cells.append([ci, -1])
                    facet_local.append([li, -1])
                else:
                    if facet_cells[fid][1] != -1:
                        raise ValueError(f"non-manifold facet {key}")
                    facet_cells[fid][1] = ci
                    facet_local[fid][1] = li
        self.facets = np.array(facets, dtype=int).reshape(len(facets), self.dim)
        self.facet_cells = np.array(facet_cells, dtype=int)
        self.facet_local = np.array(facet_local, dtype=int)
        self._facet_index = index

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

    def facet_id(self, vertex_tuple):
        return self._facet_index[tuple(sorted(vertex_tuple))]

    @cached_property
    def boundary_facets(self):
        return np.flatnonzero(self.facet_cells[:, 1] == -1)

    @cached_property
    def interior_facets(self):
        return np.flatnonzero(self.facet_cells[:, 1] != -1)

    # -- geometry -----------------------------------------------------

    @cached_property
    def signed_volumes(self):
        v = self.vertices[self.cells]
        J = v[:, 1:, :] - v[:, :1, :]
        return np.linalg.det(J) / math.factorial(self.dim)

    @cached_property
    def cell_volumes(self):
        return np.abs(self.signed_volumes)

    @cached_property
    def cell_diameters(self):
        v = self.vertices[self.cells]
        diam = np.zeros(self.ncells)
        n = self.dim + 1
        for i in range(n):
            for j in range(i + 1, n):
                diam = np.maximum(diam, np.linalg.norm(v[:, i] - v[:, j], axis=1))
        return diam

    @cached_property
    def facet_areas(self):
        v = self.vertices[self.facets]
        if self.dim == 2:
            return np.linalg.norm(v[:, 1] - v[:, 0], axis=1)
        cross = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
        return 0.5 * np.linalg.norm(cross, axis=1)

    @cached_property
    def facet_normals(self):
        """Canonical unit normals fixed by the sorted facet vertices."""
        v = self.vertices[self.facets]
        if self.dim == 2:
            t = v[:, 1] - v[:, 0]
            n = np.stack([t[:, 1], -t[:, 0]], axis=1)
        else:
            n = np.cross(v[:, 1] - v[:, 0], v[:, 2] - v[:, 0])
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
    def cell_facet_ids(self):
        ids = np.zeros((self.ncells, self.dim + 1), dtype=int)
        fids = np.arange(self.nfacets)
        for side in (0, 1):
            cells = self.facet_cells[:, side]
            on = cells >= 0
            ids[cells[on], self.facet_local[on, side]] = fids[on]
        return ids

    @cached_property
    def mesh_size(self):
        return float(self.cell_diameters.max())

    def __repr__(self):
        return (f"SimplicialMesh(dim={self.dim}, nvertices={self.nvertices}, "
                f"ncells={self.ncells}, nfacets={self.nfacets})")


def shape_regularity(mesh):
    """Max over cells of diameter divided by inradius."""
    vols = mesh.cell_volumes
    if np.any(vols <= 0.0):
        raise ValueError("degenerate cell")
    surf = np.zeros(mesh.ncells)
    areas = mesh.facet_areas
    for ci in range(mesh.ncells):
        surf[ci] = areas[mesh.cell_facet_ids[ci]].sum()
    inradius = mesh.dim * vols / surf
    return float((mesh.cell_diameters / inradius).max())


# -- structured generators -------------------------------------------


def _tag_boundary(mesh, domain):
    """Tag boundary facets by the axis-aligned plane they lie on."""
    tags = {}
    tol = 1e-12
    for fid in mesh.boundary_facets:
        c = mesh.vertices[mesh.facets[fid]].mean(axis=0)
        tag = 0
        planes = [(0, 0.0, 1), (0, 1.0, 2), (1, 0.0, 3), (1, 1.0, 4)]
        if mesh.dim == 3:
            planes += [(2, 0.0, 5), (2, 1.0, 6)]
        if domain == "l-shape":
            planes += [(0, 0.5, 7), (1, 0.5, 8)]
        pts = mesh.vertices[mesh.facets[fid]]
        for axis, value, t in planes:
            if np.all(np.abs(pts[:, axis] - value) < tol):
                tag = t
                break
        if tag == 0:
            raise ValueError("boundary facet off the expected planes")
        tags[int(fid)] = tag
    return tags


def _square_cells(nx, ny, vid):
    cells = []
    for j in range(ny):
        for i in range(nx):
            a = vid(i, j)
            b = vid(i + 1, j)
            c = vid(i, j + 1)
            d = vid(i + 1, j + 1)
            cells.append((a, b, d))
            cells.append((a, d, c))
    return cells


def _cube_five_tets(corner_ids, flip):
    """Split a cube into five tetrahedra.

    ``corner_ids[i][j][k]`` are the vertex ids of the unit cube corners.
    Four tetrahedra sit at alternating corners of the cube and one fills
    the centre.  ``flip`` mirrors the split so that face diagonals match
    between neighbouring cubes.
    """
    def cid(i, j, k):
        if flip:
            i = 1 - i
        return corner_ids[i][j][k]

    c000 = cid(0, 0, 0)
    c100 = cid(1, 0, 0)
    c010 = cid(0, 1, 0)
    c110 = cid(1, 1, 0)
    c001 = cid(0, 0, 1)
    c101 = cid(1, 0, 1)
    c011 = cid(0, 1, 1)
    c111 = cid(1, 1, 1)
    return [
        (c100, c000, c110, c101),
        (c010, c000, c110, c011),
        (c001, c000, c101, c011),
        (c111, c110, c101, c011),
        (c000, c110, c101, c011),
    ]


def build_structured(domain, n):
    """Build a structured mesh of a named domain.

    Domains: ``unit-square`` (2D), ``unit-cube`` (3D, five tetrahedra per
    cube with alternating parity), ``l-shape`` (2D unit square minus the
    upper-right quadrant; n must be even so the cut is exact).
    """
    if domain not in _STRUCTURED_DOMAINS:
        raise ValueError(f"unknown domain {domain!r}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if domain == "unit-square":
        nv = n + 1
        verts = [(i / n, j / n) for j in range(nv) for i in range(nv)]
        vid = lambda i, j: j * nv + i
        cells = _square_cells(n, n, vid)
        mesh = SimplicialMesh(2, verts, cells)
    elif domain == "l-shape":
        if n % 2 != 0:
            raise ValueError("l-shape needs even n for an exact quadrant cut")
        nv = n + 1
        half = n // 2
        keep = {}
        verts = []
        for j in range(nv):
            for i in range(nv):
                if i > half and j > half:
                    continue
                keep[(i, j)] = len(verts)
                verts.append((i / n, j / n))
        cells = []
        for j in range(n):
            for i in range(n):
                if i >= half and j >= half:
                    continue
                a = keep[(i, j)]
                b = keep[(i + 1, j)]
                c = keep[(i, j + 1)]
                d = keep[(i + 1, j + 1)]
                cells.append((a, b, d))
                cells.append((a, d, c))
        mesh = SimplicialMesh(2, verts, cells)
    else:
        if n < 1:
            raise ValueError("n must be >= 1")
        nv = n + 1
        verts = [(i / n, j / n, k / n)
                 for k in range(nv) for j in range(nv) for i in range(nv)]
        vid = lambda i, j, k: (k * nv + j) * nv + i
        cells = []
        for k in range(n):
            for j in range(n):
                for i in range(n):
                    ids = [[[vid(i + a, j + b, k + c) for c in (0, 1)]
                            for b in (0, 1)] for a in (0, 1)]
                    flip = (i + j + k) % 2 == 1
                    cells.extend(_cube_five_tets(ids, flip))
        mesh = SimplicialMesh(3, verts, cells)
    tags = _tag_boundary(mesh, domain)
    return SimplicialMesh(mesh.dim, mesh.vertices, mesh.cells, boundary_tags=tags,
                          refinement_edges=_longest_edges(mesh) if mesh.dim == 2 else None)


def _longest_edges(mesh):
    """Per-cell longest edge as a sorted vertex pair; ties pick the
    lexicographically smallest pair."""
    out = np.zeros((mesh.ncells, 2), dtype=int)
    for ci, cell in enumerate(mesh.cells):
        best = None
        n = len(cell)
        for i in range(n):
            for j in range(i + 1, n):
                a, b = int(cell[i]), int(cell[j])
                length = np.linalg.norm(mesh.vertices[a] - mesh.vertices[b])
                key = (-length, a, b)
                if best is None or key < best:
                    best = key
                    out[ci] = (a, b)
    return out


def _inherit_tags(old, new_mesh, midpoint_parents):
    """Propagate boundary tags through one refinement call."""

    def roots(v, seen=None):
        if v in midpoint_parents:
            a, b = midpoint_parents[v]
            return roots(a) | roots(b)
        return {v}

    old_tags = {}
    for fid, tag in old.boundary_tags.items():
        old_tags[tuple(old.facets[fid])] = tag
    tags = {}
    for fid in new_mesh.boundary_facets:
        rs = set()
        for v in new_mesh.facets[fid]:
            rs |= roots(int(v))
        key = tuple(sorted(rs))
        if len(key) == old.dim and key in old_tags:
            tags[int(fid)] = old_tags[key]
        elif old.boundary_tags:
            raise ValueError("boundary facet lost its tag during refinement")
    return tags


def refine_uniform(mesh):
    """Red refinement: 1:4 in 2D, 1:8 in 3D.

    In 3D the interior octahedron is split along its shortest diagonal
    (ties broken by diagonal index) so children stay shape regular.
    """
    verts = list(map(tuple, mesh.vertices))
    midpoint = {}
    midpoint_parents = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        vid = midpoint.get(key)
        if vid is None:
            vid = len(verts)
            verts.append(tuple(0.5 * (mesh.vertices[a] + mesh.vertices[b])))
            midpoint[key] = vid
            midpoint_parents[vid] = key
        return vid

    cells = []
    parents = []
    ref_edges = [] if mesh.dim == 2 else None
    for ci, cell in enumerate(mesh.cells):
        if mesh.dim == 2:
            a, b, c = (int(v) for v in cell)
            mab, mac, mbc = mid(a, b), mid(a, c), mid(b, c)
            kids = [(a, mab, mac), (b, mab, mbc), (c, mac, mbc), (mab, mac, mbc)]
            cells.extend(kids)
            parents.extend([ci] * 4)
        else:
            a, b, c, d = (int(v) for v in cell)
            m = {}
            vs = [a, b, c, d]
            for i in range(4):
                for j in range(i + 1, 4):
                    m[(i, j)] = mid(vs[i], vs[j])
            corners = [
                (a, m[(0, 1)], m[(0, 2)], m[(0, 3)]),
                (b, m[(0, 1)], m[(1, 2)], m[(1, 3)]),
                (c, m[(0, 2)], m[(1, 2)], m[(2, 3)]),
                (d, m[(0, 3)], m[(1, 3)], m[(2, 3)]),
            ]
            diagonals = [
                ((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2)),
            ]
            lengths = []
            for pa, pb in diagonals:
                va = np.asarray(verts[m[pa]])
                vb = np.asarray(verts[m[pb]])
                lengths.append(np.dot(va - vb, va - vb))
            pick = int(np.argmin(lengths))
            pa, pb = diagonals[pick]
            axis0, axis1 = m[pa], m[pb]
            others = [m[key] for key in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
                      if m[key] not in (axis0, axis1)]
            # order the equatorial midpoints into a cycle around the axis;
            # octahedron midpoints are adjacent iff they share a parent vertex
            ring = [others[0]]
            rest = others[1:]

            def share(u, v):
                pu = set(midpoint_parents.get(u, (u,)))
                pv = set(midpoint_parents.get(v, (v,)))
                return len(pu & pv) > 0
            while rest:
                for k, cand in enumerate(rest):
                    if share(ring[-1], cand):
                        ring.append(cand)
                        rest.pop(k)
                        break
                else:
                    raise RuntimeError("octahedron ring construction failed")
            octs = [(axis0, axis1, ring[k], ring[(k + 1) % 4]) for k in range(4)]
            cells.extend(corners)
            cells.extend(octs)
            parents.extend([ci] * 8)
    new_mesh = SimplicialMesh(mesh.dim, verts, cells, parents=parents)
    tags = _inherit_tags(mesh, new_mesh, midpoint_parents)
    refinement = _longest_edges(new_mesh) if mesh.dim == 2 else None
    return SimplicialMesh(mesh.dim, verts, cells, boundary_tags=tags,
                          parents=parents, refinement_edges=refinement)


def refine_marked(mesh, marked):
    """Bisect the marked cells and close the mesh so it stays conforming.

    2D uses newest-vertex bisection; 3D bisects the longest edge.
    """
    marked = sorted(set(int(m) for m in marked))
    for m in marked:
        if m < 0 or m >= mesh.ncells:
            raise ValueError(f"marked cell id {m} out of range")
    if not marked:
        return mesh

    verts = list(map(tuple, mesh.vertices))
    midpoint = {}
    midpoint_parents = {}

    def mid(a, b):
        key = (min(a, b), max(a, b))
        vid = midpoint.get(key)
        if vid is None:
            vid = len(verts)
            verts.append(tuple(0.5 * (np.asarray(verts[a]) + np.asarray(verts[b]))))
            midpoint[key] = vid
            midpoint_parents[vid] = key
        return vid

    # working cell records: [vertices tuple, root parent, refinement edge]
    work = []
    for ci, cell in enumerate(mesh.cells):
        edge = tuple(mesh.refinement_edges[ci]) if mesh.refinement_edges is not None \
            else None
        work.append([tuple(int(v) for v in cell), ci, edge])
    alive = [True] * len(work)

    def longest_edge(vs):
        best = None
        for i in range(len(vs)):
            for j in range(i + 1, len(vs)):
                a, b = sorted((vs[i], vs[j]))
                length = np.dot(np.asarray(verts[a]) - np.asarray(verts[b]),
                                np.asarray(verts[a]) - np.asarray(verts[b]))
                key = (-length, a, b)
                if best is None or key < best:
                    best = key
                    pick = (a, b)
        return pick

    def bisect(idx):
        vs, root, edge = work[idx]
        if edge is None:
            edge = longest_edge(vs)
        u, v = edge
        others = tuple(w for w in vs if w not in (u, v))
        m = mid(u, v)
        alive[idx] = False
        if mesh.dim == 2:
            w = others[0]
            kid_edge_u = tuple(sorted((u, w)))
            kid_edge_v = tuple(sorted((v, w)))
            work.append([tuple(sorted((u, w, m))), root, kid_edge_u])
            alive.append(True)
            work.append([tuple(sorted((v, w, m))), root, kid_edge_v])
            alive.append(True)
        else:
            w1, w2 = others
            work.append([tuple(sorted((u, m, w1, w2))), root, None])
            alive.append(True)
            work.append([tuple(sorted((v, m, w1, w2))), root, None])
            alive.append(True)

    for ci in marked:
        bisect(ci)

    cap = 200 * mesh.ncells + 10000
    steps = 0
    changed = True
    while changed:
        changed = False
        for idx in range(len(work)):
            if not alive[idx]:
                continue
            vs = work[idx][0]
            hang = False
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    key = (min(vs[i], vs[j]), max(vs[i], vs[j]))
                    if key in midpoint:
                        hang = True
                        break
                if hang:
                    break
            if hang:
                bisect(idx)
                changed = True
                steps += 1
                if steps > cap:
                    raise RuntimeError("refinement closure failed to terminate")

    cells = []
    parents = []
    edges = [] if mesh.dim == 2 else None
    for idx in range(len(work)):
        if not alive[idx]:
            continue
        vs, root, edge = work[idx]
        cells.append(vs)
        parents.append(root)
        if mesh.dim == 2:
            edges.append(edge if edge is not None else longest_edge(vs))
    new_mesh = SimplicialMesh(mesh.dim, verts, cells, parents=parents)
    tags = _inherit_tags(mesh, new_mesh, midpoint_parents)
    return SimplicialMesh(mesh.dim, verts, cells, boundary_tags=tags,
                          parents=parents,
                          refinement_edges=edges if mesh.dim == 2 else None)


def check_conforming(mesh, tol=1e-10):
    """Verify there are no hanging vertices.

    Facet multiplicity (1 or 2 cells) is enforced at construction; the
    remaining failure mode is a vertex sitting in the relative interior of
    a once-counted facet, which this check detects geometrically.
    """
    scale = mesh.mesh_size
    for fid in mesh.boundary_facets:
        fverts = set(int(v) for v in mesh.facets[fid])
        pts = mesh.vertices[mesh.facets[fid]]
        if mesh.dim == 2:
            a, b = pts
            t = b - a
            L2 = np.dot(t, t)
            for vid in range(mesh.nvertices):
                if vid in fverts:
                    continue
                p = mesh.vertices[vid]
                s = np.dot(p - a, t) / L2
                if s <= tol or s >= 1 - tol:
                    continue
                dist = np.linalg.norm(p - (a + s * t))
                if dist < tol * scale:
                    raise ValueError(f"hanging vertex {vid} on facet {fid}")
        else:
            a, b, c = pts
            n = np.cross(b - a, c - a)
            n = n / np.linalg.norm(n)
            M = np.column_stack([b - a, c - a])
            MtM_inv = np.linalg.inv(M.T @ M)
            for vid in range(mesh.nvertices):
                if vid in fverts:
                    continue
                p = mesh.vertices[vid]
                if abs(np.dot(p - a, n)) > tol * scale:
                    continue
                uv = MtM_inv @ (M.T @ (p - a))
                u, v = uv
                if u > tol and v > tol and u + v < 1 - tol:
                    raise ValueError(f"hanging vertex {vid} on facet {fid}")
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


def read_mesh(path):
    """Read the plain-text mesh format written by :func:`write_mesh`."""
    if hasattr(path, "read"):
        text = path.read()
    else:
        with open(path) as fh:
            text = fh.read()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if len(head) != 4 or head[0] != "dpgmesh":
        raise ValueError("not a dpgmesh file")
    dim, nv, nc = int(head[1]), int(head[2]), int(head[3])
    row = 1
    verts = []
    for _ in range(nv):
        parts = lines[row].split()
        if len(parts) != dim:
            raise ValueError(f"bad vertex line: {lines[row]!r}")
        verts.append([float(x) for x in parts])
        row += 1
    cells = []
    for _ in range(nc):
        parts = lines[row].split()
        if len(parts) != dim + 1:
            raise ValueError(f"bad cell line: {lines[row]!r}")
        cells.append([int(x) for x in parts])
        row += 1
    mesh = SimplicialMesh(dim, verts, cells)
    tags = {}
    for ln in lines[row:]:
        parts = ln.split()
        if parts[0] != "tag" or len(parts) != dim + 2:
            raise ValueError(f"bad tag line: {ln!r}")
        key = tuple(sorted(int(x) for x in parts[1:-1]))
        tags[mesh.facet_id(key)] = int(parts[-1])
    return SimplicialMesh(dim, verts, cells, boundary_tags=tags,
                          refinement_edges=_longest_edges(mesh) if dim == 2 else None)
