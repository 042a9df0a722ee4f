"""Structured mesh construction, refinement and conformity."""

import io
import re

import numpy as np
import pytest

from dpgfem.fortin import REFERENCE_TET, TetQuadrature
from dpgfem.meshes import (
    SimplicialMesh,
    _row_codes,
    build_structured,
    check_conforming,
    read_mesh,
    refine_marked,
    refine_uniform,
    shape_regularity,
    write_mesh,
)
from oracles import interior_facets


@pytest.mark.parametrize("n,cells", [(1, 2), (2, 8), (3, 18)])
def test_square_cell_counts(n, cells):
    mesh = build_structured("unit-square", n)
    assert mesh.ncells == cells
    assert mesh.nvertices == (n + 1) ** 2
    assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-14


@pytest.mark.parametrize("n,cells", [(1, 5), (2, 40)])
def test_cube_cell_counts(n, cells):
    mesh = build_structured("unit-cube", n)
    assert mesh.ncells == cells
    assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-13
    check_conforming(mesh)


def test_lshape_is_three_quarters_of_the_square():
    mesh = build_structured("l-shape", 2)
    assert mesh.ncells == 6
    assert abs(mesh.cell_volumes.sum() - 0.75) < 1e-14
    with pytest.raises(ValueError):
        build_structured("l-shape", 3)


def test_zero_subdivisions_rejected():
    with pytest.raises(ValueError):
        build_structured("unit-square", 0)
    with pytest.raises(ValueError):
        build_structured("nonexistent-domain", 1)


@pytest.mark.parametrize("n", [2.5, 2.0, "2", True])
def test_non_integer_subdivisions_rejected(n):
    with pytest.raises(ValueError, match=f"n must be an integer, got {n!r}"):
        build_structured("unit-square", n)


def test_numpy_integer_subdivisions_accepted():
    assert build_structured("unit-square", np.int64(2)).ncells == 8


def test_uniform_refinement_quadruples_triangles(eight_tri):
    fine = refine_uniform(eight_tri)
    assert fine.ncells == 32
    assert fine.mesh_size == pytest.approx(eight_tri.mesh_size / 2)


def test_uniform_refinement_octuples_tets(five_tet):
    fine = refine_uniform(five_tet)
    assert fine.ncells == 40
    check_conforming(fine)
    assert abs(fine.cell_volumes.sum() - 1.0) < 1e-13


def test_two_refinements_halve_diameter_twice(two_tri):
    fine = refine_uniform(refine_uniform(two_tri))
    assert fine.ncells == 32
    assert fine.mesh_size == pytest.approx(two_tri.mesh_size / 4)


def test_shape_regularity_invariant_under_red_refinement(eight_tri):
    v0 = shape_regularity(eight_tri)
    v1 = shape_regularity(refine_uniform(eight_tri))
    assert v1 == pytest.approx(v0, rel=1e-12)


@pytest.mark.parametrize("domain,n", [("l-shape", 2), ("unit-cube", 1)])
def test_shape_regularity_matches_cellwise_reference(domain, n):
    mesh = refine_marked(build_structured(domain, n), {0, 3})
    surf = np.array([mesh.facet_areas[mesh.cell_facet_ids[ci]].sum()
                     for ci in range(mesh.ncells)])
    inradius = mesh.dim * mesh.cell_volumes / surf
    assert shape_regularity(mesh) == (mesh.cell_diameters / inradius).max()


def test_marked_bisection_of_both_triangles(two_tri):
    fine = refine_marked(two_tri, {0, 1})
    assert fine.ncells == 4
    check_conforming(fine)


def test_marked_refinement_closure_keeps_conformity(eight_tri, rng):
    mesh = eight_tri
    for _ in range(5):
        k = int(rng.integers(1, mesh.ncells + 1))
        marked = rng.choice(mesh.ncells, size=k, replace=False)
        mesh = refine_marked(mesh, set(int(m) for m in marked))
        check_conforming(mesh)
    assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-13


def test_marked_refinement_3d_conformity(five_tet, rng):
    mesh = five_tet
    for _ in range(3):
        k = int(rng.integers(1, mesh.ncells + 1))
        marked = rng.choice(mesh.ncells, size=k, replace=False)
        mesh = refine_marked(mesh, set(int(m) for m in marked))
        check_conforming(mesh)
    assert abs(mesh.cell_volumes.sum() - 1.0) < 1e-13


def test_scalene_triangle_and_its_children_bisect_their_longest_edge():
    mesh = SimplicialMesh(2, [(0, 0), (10, 0), (3, 1)], [(0, 1, 2)])
    once = refine_marked(mesh, [0])
    assert once.vertices[3:].tolist() == [[5, 0]]
    # the longest edge of the child (0, 2, 3) is the half (0, 3) of its
    # parent's, not (0, 2), which newest-vertex bisection would cut
    twice = refine_marked(once, range(once.ncells))
    assert sorted(twice.vertices[4:].tolist()) == [[2.5, 0], [6.5, 0.5]]
    assert twice.ncells == 4
    check_conforming(twice)


@pytest.mark.parametrize("domain", ["unit-square", "unit-cube"])
def test_vertex_at_a_facet_end_hangs_in_2d_and_3d(domain):
    """A vertex at a boundary facet's end that is not the facet's own,
    here an unreferenced copy of vertex 1, hangs in either dimension."""
    mesh = build_structured(domain, 1)
    copy = SimplicialMesh(mesh.dim, np.concatenate(
        [mesh.vertices, mesh.vertices[1:2]]), mesh.cells)
    with pytest.raises(ValueError,
                       match=f"hanging vertex {mesh.nvertices} on facet"):
        check_conforming(copy)


@pytest.mark.parametrize("seed", range(5))
def test_refinement_survives_the_mesh_file(seed):
    """A mesh read back from its file refines as the mesh itself does,
    also where its triangles are not right-isosceles."""
    rng = np.random.default_rng(seed)
    mesh = build_structured("unit-square", 3)
    verts = mesh.vertices.copy()
    inner = np.all((verts > 0) & (verts < 1), axis=1)
    verts[inner] += rng.uniform(-0.1, 0.1, (inner.sum(), 2))
    mesh = SimplicialMesh(2, verts, mesh.cells,
                          boundary_tags=mesh.boundary_tags)
    for _ in range(3):
        mesh = refine_marked(mesh, rng.choice(mesh.ncells, 5, replace=False))
    buf = io.StringIO()
    write_mesh(mesh, buf)
    buf.seek(0)
    back = read_mesh(buf)
    fine, fine_back = (refine_marked(m, range(m.ncells)) for m in (mesh, back))
    assert np.array_equal(fine_back.vertices, fine.vertices)
    assert np.array_equal(fine_back.cells, fine.cells)


def test_marked_out_of_range_rejected(two_tri):
    with pytest.raises(ValueError):
        refine_marked(two_tri, {5})
    assert refine_marked(two_tri, set()) is two_tri


@pytest.mark.parametrize("marked", [np.arange(8) == 5, [0.7], [True],
                                    ["1"]],
                         ids=["bool-mask", "float", "bool", "text"])
def test_marked_ids_must_be_integers(eight_tri, marked):
    with pytest.raises(ValueError, match="marked cell id .* is not an int"):
        refine_marked(eight_tri, marked)


def test_marked_numpy_integers_accepted(eight_tri):
    assert np.array_equal(refine_marked(eight_tri, np.array([5])).cells,
                          refine_marked(eight_tri, {5}).cells)


def test_refinement_records_parents(two_tri):
    fine = refine_marked(two_tri, {0})
    assert fine.ncells > two_tri.ncells
    assert len(fine.parents) == fine.ncells
    assert all(0 <= p < two_tri.ncells for p in fine.parents)
    # children of the marked cell split its area
    kids = np.where(fine.parents == 0)[0]
    assert len(kids) >= 2
    assert fine.cell_volumes[kids].sum() == pytest.approx(
        two_tri.cell_volumes[0])


def test_facet_adjacency(eight_tri):
    interior = interior_facets(eight_tri)
    boundary = eight_tri.boundary_facets
    assert len(interior) + len(boundary) == eight_tri.nfacets
    assert len(boundary) == 8
    # every boundary facet carries a tag
    assert set(boundary) == set(eight_tri.boundary_tags)


def test_mesh_io_roundtrip(eight_tri):
    buf = io.StringIO()
    write_mesh(eight_tri, buf)
    buf.seek(0)
    back = read_mesh(buf)
    assert back.ncells == eight_tri.ncells
    assert np.allclose(back.vertices, eight_tri.vertices)
    assert np.array_equal(back.cells, eight_tri.cells)
    assert back.boundary_tags == eight_tri.boundary_tags


def _plain(message):
    """The message with numpy scalar reprs written as plain integers."""
    return re.sub(r"np\.int64\((-?\d+)\)", r"\1", message)


def test_three_cells_on_one_facet_rejected():
    verts = [(0, 1), (0, 0), (1, 0), (0, -1), (1, 1)]
    with pytest.raises(ValueError) as info:
        SimplicialMesh(2, verts, [(0, 1, 2), (1, 2, 3), (1, 2, 4)])
    assert _plain(str(info.value)) == "non-manifold facet (1, 2)"


def test_cell_with_repeated_vertex_rejected():
    verts = [(0, 0), (1, 0), (0, 1), (1, 1)]
    with pytest.raises(ValueError, match="repeated vertex"):
        SimplicialMesh(2, verts, [(0, 1, 2), (1, 3, 3)])


def _flat_tet():
    """Four vertices in one plane: |det J| is about 2e-17."""
    a, b, c = np.random.default_rng(1).standard_normal((3, 3))
    return np.array([a, b, c, a + 0.3 * (b - a) + 0.4 * (c - a)])


def test_numerically_flat_cell_rejected():
    verts = _flat_tet()
    with pytest.raises(ValueError, match=r"degenerate cell 0 .*\|det J\|"):
        SimplicialMesh(3, verts, [(0, 1, 2, 3)])
    buf = io.StringIO()
    buf.write("dpgmesh 3 4 1\n")
    buf.writelines(" ".join(f"{x:.17g}" for x in v) + "\n" for v in verts)
    buf.write("0 1 2 3\n")
    buf.seek(0)
    with pytest.raises(ValueError, match="degenerate cell 0"):
        read_mesh(buf)
    with pytest.raises(ValueError, match="degenerate cell 0"):
        TetQuadrature(verts, 4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_vertex_rejected(eight_tri, bad):
    verts = eight_tri.vertices.copy()
    verts[4, 1] = bad
    with pytest.raises(ValueError,
                       match="vertex 4 has a non-finite coordinate"):
        SimplicialMesh(2, verts, eight_tri.cells)


def test_small_cell_is_not_flat():
    # the flatness test is scale free: a tiny regular cell passes
    quad = TetQuadrature(REFERENCE_TET * 1e-6, 4)
    assert quad.mesh.cell_volumes[0] == pytest.approx(1e-18 / 6, rel=1e-12)
    assert quad.vol_weights.sum() == pytest.approx(1e-18 / 6, rel=1e-12)


def test_tag_on_interior_facet_rejected(eight_tri):
    fid = int(interior_facets(eight_tri)[0])
    ends = eight_tri.facets[fid].tolist()
    with pytest.raises(ValueError, match=re.escape(
            f"tag on interior facet {fid} with vertices {ends}")):
        SimplicialMesh(2, eight_tri.vertices, eight_tri.cells,
                       boundary_tags={fid: 1})


@pytest.mark.parametrize("fid", [-1, 16, 99, 1.0, True, "0"])
def test_tag_on_a_facet_id_out_of_range_rejected(eight_tri, fid):
    assert eight_tri.nfacets == 16
    with pytest.raises(ValueError, match=re.escape(
            f"tag on facet id {fid!r}, not in 0 to nfacets - 1 = 15")):
        SimplicialMesh(2, eight_tri.vertices, eight_tri.cells,
                       boundary_tags={fid: 5})


@pytest.mark.parametrize("domain,n", [("l-shape", 2), ("unit-cube", 1)])
def test_mesh_io_roundtrip_keeps_facet_ids_and_tags(domain, n):
    mesh = build_structured(domain, n)
    mesh = refine_marked(mesh, {0, mesh.ncells - 1})
    mesh = refine_marked(mesh, {1, 2})
    buf = io.StringIO()
    write_mesh(mesh, buf)
    buf.seek(0)
    back = read_mesh(buf)
    for name in ("vertices", "cells", "facets", "facet_cells", "facet_local"):
        assert np.array_equal(getattr(back, name), getattr(mesh, name)), name
    assert back.boundary_tags == mesh.boundary_tags


@pytest.mark.parametrize("keep,message", [
    (0, "header line 'dpgmesh <dim> <nvertices> <ncells>' is missing"),
    (4, "vertex line 4 of 9 is missing"),
    (12, "cell line 3 of 8 is missing"),
])
def test_read_mesh_names_what_is_missing(eight_tri, keep, message):
    """Empty or truncated text fails with the missing line named."""
    buf = io.StringIO()
    write_mesh(eight_tri, buf)
    text = "".join(buf.getvalue().splitlines(keepends=True)[:keep])
    with pytest.raises(ValueError, match=re.escape(message)):
        read_mesh(io.StringIO(text))


def _edit_line(text, row, edit):
    lines = text.splitlines(keepends=True)
    lines[row] = edit(lines[row])
    return "".join(lines)


@pytest.mark.parametrize("row,edit,message", [
    (0, lambda ln: ln.replace(" 9 ", " x "),
     "mesh header field nvertices must be an integer, got 'x'"),
    (0, lambda ln: ln.replace(" 8\n", " -8\n"),
     "mesh header field ncells must be nonnegative, got -8"),
    (3, lambda ln: "0.5 abc\n", "bad vertex line: '0.5 abc': 'abc' is not "
                                 "a number"),
    (11, lambda ln: "0 1 2.5\n", "bad cell line: '0 1 2.5': '2.5' is not "
                                  "an integer"),
], ids=["count-not-integer", "count-negative", "vertex-field", "cell-field"])
def test_read_mesh_names_the_bad_field(eight_tri, row, edit, message):
    """A header count that is no integer or is negative, and a vertex or
    cell field that does not parse, fail with the field or line named."""
    buf = io.StringIO()
    write_mesh(eight_tri, buf)
    text = _edit_line(buf.getvalue(), row, edit)
    with pytest.raises(ValueError, match=re.escape(message)):
        read_mesh(io.StringIO(text))


def test_read_mesh_rejects_nan_vertex(eight_tri):
    buf = io.StringIO()
    write_mesh(eight_tri, buf)
    text = _edit_line(buf.getvalue(), 3, lambda ln: "nan 0.5\n")
    with pytest.raises(ValueError,
                       match="vertex 2 has a non-finite coordinate"):
        read_mesh(io.StringIO(text))


def test_read_mesh_rejects_tag_on_no_facet(eight_tri):
    buf = io.StringIO()
    write_mesh(eight_tri, buf)
    buf.write("tag 0 8 1\n")  # opposite corners of the square
    buf.seek(0)
    with pytest.raises(ValueError, match=r"no facet: \[0, 8\]"):
        read_mesh(buf)


@pytest.mark.parametrize("tag,key", [("tag -1 0 1", "[-1, 0]"),
                                     ("tag 0 9 1", "[0, 9]")])
def test_read_mesh_rejects_tag_on_vertex_ids_out_of_range(eight_tri, tag, key):
    buf = io.StringIO()
    write_mesh(eight_tri, buf)
    buf.write(tag + "\n")
    buf.seek(0)
    with pytest.raises(ValueError, match=re.escape(f"no facet: {key}")):
        read_mesh(buf)


def test_read_mesh_rejects_a_facet_tagged_twice(eight_tri):
    buf = io.StringIO()
    write_mesh(eight_tri, buf)
    text = buf.getvalue()
    for line in text.splitlines():
        if line.startswith("tag "):
            _, a, b, tag = line.split()
            break
    # the same facet again, its vertices in the other order
    text += f"tag {b} {a} {int(tag) + 3}\n"
    with pytest.raises(ValueError, match=re.escape(
            f"facet [{a}, {b}] is tagged twice: {tag} and {int(tag) + 3}")):
        read_mesh(io.StringIO(text))


@pytest.mark.parametrize("top", [8, 2 ** 21 + 5, 2 ** 40])
def test_row_codes_are_equal_and_ordered_as_the_rows(top):
    # face triples of vertex ids up to 2**40 would overflow int64 as
    # three base-(top + 1) digits; the codes must still stay exact
    rng = np.random.default_rng(7)
    rows = np.sort(rng.integers(0, top + 1, (400, 3)), axis=1)
    rows = np.concatenate([rows, rows[::3], [[top, top, top], [0, 0, 0]]])
    codes = _row_codes(rows)
    assert codes.dtype == np.int64
    _, by_row = np.unique(rows, axis=0, return_inverse=True)
    _, by_code = np.unique(codes, return_inverse=True)
    assert np.array_equal(by_row.ravel(), by_code)


# -- boundary tags through refinement -----------------------------------


def _partly_tagged():
    """The 8-triangle square with 3 of its 8 boundary facets tagged."""
    mesh = build_structured("unit-square", 2)
    fids = mesh.boundary_facets
    tags = {int(fids[0]): 4, int(fids[3]): 5, int(fids[6]): 6}
    return SimplicialMesh(2, mesh.vertices, mesh.cells, boundary_tags=tags)


def _containing_facet(old, new, fid):
    """The old boundary facet whose segment contains new facet fid."""
    p, q = new.vertices[new.facets[fid]]
    for ofid in old.boundary_facets:
        a, b = old.vertices[old.facets[ofid]]
        t = b - a
        on = [abs(t[0] * (x - a)[1] - t[1] * (x - a)[0]) < 1e-12 and
              -1e-12 <= np.dot(x - a, t) <= np.dot(t, t) + 1e-12
              for x in (p, q)]
        if all(on):
            return int(ofid)
    raise AssertionError(f"facet {fid} lies in no old boundary facet")


@pytest.mark.parametrize("refine", [refine_uniform,
                                    lambda m: refine_marked(m, {0, 5})],
                         ids=["uniform", "marked"])
def test_refinement_keeps_partial_tags(refine):
    old = _partly_tagged()
    new = refine(old)
    seen = set()
    for fid in new.boundary_facets:
        ofid = _containing_facet(old, new, fid)
        assert new.boundary_tags.get(int(fid)) == old.boundary_tags.get(ofid)
        seen.add(ofid)
    assert seen == set(old.boundary_facets.tolist())
    assert set(new.boundary_tags) <= set(new.boundary_facets.tolist())


def test_boundary_facet_in_no_old_facet_rejected():
    from dpgfem.meshes import _inherit_tags
    old = _partly_tagged()
    # descend every vertex from itself, except that the centre and a
    # corner trade places, so a boundary edge at that corner maps to an
    # interior pair of old vertices
    centre = int(np.argmin(np.sum((old.vertices - 0.5) ** 2, axis=1)))
    corner = int(np.argmin(np.sum(old.vertices ** 2, axis=1)))
    perm = np.arange(old.nvertices)
    perm[[centre, corner]] = perm[[corner, centre]]
    roots = np.column_stack([perm, np.full(old.nvertices, -1)])
    with pytest.raises(ValueError, match="lost its tag"):
        _inherit_tags(old, old, roots)


# -- hanging vertices ---------------------------------------------------


def _loop_check_conforming(mesh, tol=1e-10):
    """Facet by facet and vertex by vertex, the reference for the
    array-based check_conforming: the same first offender."""
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
                u, v = MtM_inv @ (M.T @ (p - a))
                if u > -tol and v > -tol and u + v < 1 + tol:
                    raise ValueError(f"hanging vertex {vid} on facet {fid}")
    return True


def _hanging_2d():
    """The 8-triangle square with two cells, neither sharing an edge with
    the other, split 1:4 and their neighbours left whole: the midpoints
    of the shared edges hang."""
    mesh = build_structured("unit-square", 2)
    verts, cells = [tuple(v) for v in mesh.vertices], []
    for ci, cell in enumerate(mesh.cells):
        if ci not in (0, 5):
            cells.append(tuple(cell))
            continue
        mids = []
        for i, j in ((0, 1), (0, 2), (1, 2)):
            mid = tuple((mesh.vertices[cell[i]] + mesh.vertices[cell[j]]) / 2)
            if mid not in verts:
                verts.append(mid)
            mids.append(verts.index(mid))
        a, b, c = cell
        m01, m02, m12 = mids
        cells += [(a, m01, m02), (b, m01, m12), (c, m02, m12),
                  (m01, m02, m12)]
    return SimplicialMesh(2, verts, cells)


def _hanging_3d():
    """One tetrahedron below the face (a, b, c); above it the face is
    split at its centroid g (vertex 3) into three faces of three
    tetrahedra with a common apex."""
    verts = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1 / 3, 1 / 3, 0),
             (0.3, 0.3, 1), (0.3, 0.3, -1)]
    return SimplicialMesh(3, verts, [(0, 1, 2, 5), (0, 1, 3, 4),
                                     (1, 2, 3, 4), (0, 2, 3, 4)])


def _hanging_on_edge_3d():
    """The 5-tet cube with tetrahedron 0 bisected at the midpoint of its
    face diagonal (0, 3) and the two other cells on that edge left
    whole: the midpoint hangs on an edge of their faces, not inside
    one."""
    mesh = build_structured("unit-cube", 1)
    mid = len(mesh.vertices)
    verts = np.vstack([mesh.vertices, mesh.vertices[[0, 3]].mean(axis=0)])
    a, b = mesh.cells[0].copy(), mesh.cells[0].copy()
    a[a == 3], b[b == 0] = mid, mid
    return SimplicialMesh(3, verts, [a, b] + list(mesh.cells[1:]))


@pytest.mark.parametrize("build", [_hanging_2d, _hanging_3d,
                                   _hanging_on_edge_3d])
def test_hanging_vertex_reported(build):
    mesh = build()
    with pytest.raises(ValueError) as want:
        _loop_check_conforming(mesh)
    with pytest.raises(ValueError) as got:
        check_conforming(mesh)
    assert str(got.value) == str(want.value)
    vid, fid = map(int, re.findall(r"\d+", str(got.value)))
    assert vid not in mesh.facets[fid]
    assert vid in mesh.cells


@pytest.mark.parametrize("domain,n", [("l-shape", 2), ("unit-cube", 1)])
def test_check_conforming_matches_loop_on_refined_meshes(domain, n, rng):
    mesh = build_structured(domain, n)
    for _ in range(3):
        marked = rng.choice(mesh.ncells, size=max(1, mesh.ncells // 3),
                            replace=False)
        mesh = refine_marked(mesh, set(int(m) for m in marked))
        assert check_conforming(mesh) and _loop_check_conforming(mesh)
