"""Dof maps, facet signs and natural Grams against per-cell references.

The references below are the straightforward loops over cells and
facets: the first owning cell and local facet of each facet, facet
orientation from the vertex opposite the facet, the numbering of the
flux (one block of dofs per facet), H(div) orientation and scaling
factors, and the sum of per-cell natural-norm Grams.  The mesh-wide
implementations must give the same integers and factors exactly, and
the same Grams to rounding.
"""

import numpy as np
import pytest
from scipy import sparse

from dpgfem.formulations import Slot
from dpgfem.meshes import build_structured, refine_marked, refine_uniform
from dpgfem.reference import conforming_basis
from dpgfem.simplex import facet_measure, local_edges, local_facets
from dpgfem.spaces import (
    ElementTables,
    InterfaceSpace,
    conforming_map,
    facet_owners,
    natural_gram,
)
from oracles import pushed_derivs, pushed_values


def _lshape():
    mesh = build_structured("l-shape", 2)
    mesh = refine_marked(mesh, {0, 5, mesh.ncells - 1})
    return refine_marked(mesh, {1, 2, mesh.ncells - 2})


def _cube():
    return refine_uniform(build_structured("unit-cube", 1))


MESHES = {"lshape": _lshape, "cube": _cube}


def _reference_signs(mesh):
    signs = np.zeros((mesh.ncells, mesh.dim + 1), dtype=int)
    centroids = mesh.vertices[mesh.facets].mean(axis=1)
    for fid, (cells, locs) in enumerate(zip(mesh.facet_cells,
                                            mesh.facet_local)):
        for ci, li in zip(cells, locs):
            if ci == -1:
                continue
            opp = [v for v in mesh.cells[ci] if v not in set(mesh.facets[fid])]
            outward = centroids[fid] - mesh.vertices[opp[0]]
            signs[ci, li] = 1 if mesh.facet_normals[fid] @ outward > 0 else -1
    return signs


def _reference_owners(mesh):
    owner = np.full((mesh.nfacets, 2), -1, dtype=int)
    for ci in range(mesh.ncells):
        for lf in range(mesh.dim + 1):
            fid = mesh.cell_facet_ids[ci, lf]
            if owner[fid, 0] < 0:
                owner[fid] = (ci, lf)
    return owner


def _reference_facet_map(mesh, nb):
    nfac = mesh.dim + 1
    cell_dofs = np.zeros((mesh.ncells, nfac * nb), dtype=int)
    for ci in range(mesh.ncells):
        for lf in range(nfac):
            sl = slice(lf * nb, (lf + 1) * nb)
            cell_dofs[ci, sl] = mesh.cell_facet_ids[ci, lf] * nb + np.arange(nb)
    boundary = np.zeros(mesh.nfacets * nb, dtype=bool)
    for fid in mesh.boundary_facets:
        boundary[fid * nb:(fid + 1) * nb] = True
    return cell_dofs, boundary


def _reference_numbering(mesh, basis, use):
    """Global dofs numbered by first appearance over cells in ascending
    order, and the boundary flag of each dof's entity."""
    dim = mesh.dim
    bfacets = [tuple(mesh.facets[fid]) for fid in mesh.boundary_facets]
    on_boundary = {"vertex": {(v,) for f in bfacets for v in f},
                   "edge": {(f[a], f[b]) for f in bfacets
                            for a, b in local_edges(dim - 1)}
                   if dim == 3 else set(bfacets),
                   "face": set(bfacets), "interior": set()}
    ents = basis.dof_entities()
    numbering, boundary = {}, []
    cell_dofs = np.zeros((mesh.ncells, len(use)), dtype=int)
    for ci, cell in enumerate(mesh.cells):
        for col, k in enumerate(use):
            kind, loc, j = ents[k]
            verts = {"vertex": lambda: (loc,),
                     "edge": lambda: local_edges(dim)[loc],
                     "face": lambda: local_facets(dim)[loc]}.get(kind)
            ent = (tuple(int(cell[v]) for v in verts()) if verts
                   else (ci,))
            if (kind, ent, j) not in numbering:
                numbering[kind, ent, j] = len(numbering)
                boundary.append(ent in on_boundary[kind])
            cell_dofs[ci, col] = numbering[kind, ent, j]
    return cell_dofs, np.array(boundary, dtype=bool)


def _reference_hdiv_factors(mesh, basis, use):
    det = mesh.geometry.det
    facet_kind = "edge" if mesh.dim == 2 else "face"
    ents = basis.dof_entities()
    out = np.ones((mesh.ncells, len(use)))
    for ci in range(mesh.ncells):
        for col, k in enumerate(use):
            kind, loc, _ = ents[k]
            out[ci, col] = float(np.sign(det[ci]))
            if kind == facet_kind:
                out[ci, col] *= mesh.cell_facet_signs[ci, loc] / facet_measure(
                    mesh.dim, local_facets(mesh.dim)[loc])
    return out


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_signs_owners_and_facet_maps_match_reference(mesh_name):
    mesh = MESHES[mesh_name]()
    assert np.array_equal(mesh.cell_facet_signs, _reference_signs(mesh))
    assert np.array_equal(facet_owners(mesh), _reference_owners(mesh))
    # the flux: normal traces of the H(div) skeleton of degree k, one
    # block of nb dofs per facet, scaled by the facet area
    for k in (1, 2, 3):
        flux = InterfaceSpace(mesh, Slot("sighat", "hdiv", k, "skeleton"),
                              k, 2 * k + 2, None)
        fmap, basis = flux.dofmap, flux.tables.basis
        use = list(fmap.local_functions)
        nb = len(use) // (mesh.dim + 1)
        assert fmap.ndofs == mesh.nfacets * nb
        for got, want in zip((fmap.cell_dofs, fmap.boundary),
                             _reference_facet_map(mesh, nb)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        ents = basis.dof_entities()
        area = mesh.facet_areas[mesh.cell_facet_ids[:, [ents[j][1]
                                                        for j in use]]]
        want = _reference_hdiv_factors(mesh, basis, use) * area
        assert np.all(np.abs(fmap.cell_factors - want)
                      <= 1e-15 * np.abs(want))


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("skeleton", [False, True])
def test_hdiv_factors_match_reference(mesh_name, skeleton):
    mesh = MESHES[mesh_name]()
    basis = conforming_basis("hdiv", 2, mesh.dim)
    cmap = conforming_map(mesh, basis, skeleton=skeleton)
    use = (cmap.local_functions if skeleton
           else range(len(basis.dof_entities())))
    assert np.array_equal(cmap.cell_factors,
                          _reference_hdiv_factors(mesh, basis, list(use)))


@pytest.mark.parametrize("mesh_name,family,degree", [
    ("lshape", "h1", 3), ("lshape", "hdiv", 2),
    ("cube", "h1", 4), ("cube", "hcurl", 2), ("cube", "hdiv", 2),
])
@pytest.mark.parametrize("skeleton", [False, True])
def test_conforming_numbering_matches_reference(mesh_name, family, degree,
                                                skeleton):
    mesh = MESHES[mesh_name]()
    basis = conforming_basis(family, degree, mesh.dim)
    cmap = conforming_map(mesh, basis, skeleton=skeleton)
    use = (cmap.local_functions if skeleton
           else range(len(basis.dof_entities())))
    cell_dofs, boundary = _reference_numbering(mesh, basis, list(use))
    assert cmap.ndofs == len(boundary)
    assert cmap.cell_dofs.dtype == cell_dofs.dtype
    assert np.array_equal(cmap.cell_dofs, cell_dofs)
    assert np.array_equal(cmap.boundary, boundary)


def _reference_gram(tables, dofmap, include_deriv):
    rows, cols, vals = [], [], []
    use = dofmap.local_functions
    for ci in range(tables.mesh.ncells):
        w = tables.volume_weights(ci)
        parts = [pushed_values(tables, ci)] + ([pushed_derivs(tables, ci)]
                                       if include_deriv else [])
        M = 0.0
        for t in parts:
            t = t if use is None else t[use]
            M = M + np.einsum("ipc,jpc,p->ij", t, t, w)
        f = dofmap.cell_factors[ci]
        idx = dofmap.cell_dofs[ci]
        rows.append(np.repeat(idx, len(idx)))
        cols.append(np.tile(idx, len(idx)))
        vals.append((M * np.outer(f, f)).ravel())
    return sparse.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dofmap.ndofs, dofmap.ndofs)).toarray()


@pytest.mark.parametrize("mesh_name,family", [
    ("lshape", "h1"), ("lshape", "hdiv"),
    ("cube", "h1"), ("cube", "hcurl"), ("cube", "hdiv"),
])
@pytest.mark.parametrize("skeleton", [False, True])
def test_natural_gram_matches_cell_sum(mesh_name, family, skeleton):
    mesh = MESHES[mesh_name]()
    basis = conforming_basis(family, 2, mesh.dim)
    cmap = conforming_map(mesh, basis, skeleton=skeleton)
    tables = ElementTables(mesh, basis)
    for include_deriv in (False, True):
        G = natural_gram(tables, cmap, include_deriv=include_deriv)
        ref = _reference_gram(tables, cmap, include_deriv)
        err = np.linalg.norm(G.toarray() - ref) / np.linalg.norm(ref)
        assert err < 1e-13
