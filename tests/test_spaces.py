"""Global dof maps, assembled Gram matrices and trace continuity."""

import math

import numpy as np
import pytest

from dpgfem.formulations import make_formulation
from dpgfem.meshes import build_structured, refine_uniform
from dpgfem.reference import conforming_basis, modal_basis
from dpgfem.spaces import (
    ElementTables,
    conforming_map,
    natural_gram,
)
from dpgfem.system import Discretization
from oracles import interior_facets, pushed_derivs, pushed_values


def test_h1_conforming_count_on_two_triangles(two_tri):
    basis = conforming_basis("h1", 2, 2)
    cmap = conforming_map(two_tri, basis)
    assert cmap.ndofs == 9  # 4 vertices + 5 edges
    assert int(cmap.boundary.sum()) == 8  # everything except the diagonal


def test_broken_and_facet_maps(eight_tri):
    bm = conforming_map(eight_tri, modal_basis("l2", 2, 2))
    assert bm.ndofs == 6 * eight_tri.ncells
    assert np.array_equal(bm.cell_dofs,
                          np.arange(bm.ndofs).reshape(eight_tri.ncells, 6))
    assert np.array_equal(bm.cell_factors, np.ones((eight_tri.ncells, 6)))
    assert not bm.boundary.any()


@pytest.mark.parametrize("family,degree", [("h1", 2), ("hdiv", 1)])
def test_natural_gram_is_spd(eight_tri, family, degree):
    basis = conforming_basis(family, degree, 2)
    cmap = conforming_map(eight_tri, basis)
    tables = ElementTables(eight_tri, basis)
    G = natural_gram(tables, cmap)
    G = np.asarray(G.todense()) if hasattr(G, "todense") else np.asarray(G)
    assert np.allclose(G, G.T, atol=1e-13)
    lam = np.linalg.eigvalsh(G)
    assert lam.min() > 1e-12


def _shared_facet(mesh):
    fid = interior_facets(mesh)[0]
    ca, cb = mesh.facet_cells[fid]
    la, lb = mesh.facet_local[fid]
    return ca, la, cb, lb


@pytest.mark.parametrize("family,degree,dim", [
    ("h1", 2, 2), ("hdiv", 1, 2), ("h1", 2, 3), ("hdiv", 1, 3),
    ("hcurl", 1, 3),
])
def test_conforming_trace_continuity(family, degree, dim, rng):
    """A conforming coefficient vector must have matching traces from
    both sides of a shared facet (value, normal flux, or tangential
    components depending on the family)."""
    mesh = build_structured("unit-square" if dim == 2 else "unit-cube", 1)
    basis = conforming_basis(family, degree, dim)
    cmap = conforming_map(mesh, basis)
    tables = ElementTables(mesh, basis)
    x = rng.standard_normal(cmap.ndofs)
    ca, la, cb, lb = _shared_facet(mesh)

    def facet_field(ci, lf):
        coef = x[cmap.cell_dofs[ci]] * cmap.cell_factors[ci]
        vals = np.einsum("f,fpc->pc", coef, pushed_values(tables, ci, lf))
        return vals, tables.physical_facet_points(ci, lf)

    va, pa = facet_field(ca, la)
    vb, pb = facet_field(cb, lb)
    # identical physical quadrature points possibly in different order
    order_a = np.lexsort(pa.T)
    order_b = np.lexsort(pb.T)
    assert np.allclose(pa[order_a], pb[order_b], atol=1e-13)
    va, vb = va[order_a], vb[order_b]
    fid = mesh.cell_facet_ids[ca, la]
    n = mesh.facet_normals[fid]
    if family == "h1":
        assert np.allclose(va, vb, atol=1e-11)
    elif family == "hdiv":
        assert np.allclose(va @ n, vb @ n, atol=1e-11)
    else:
        ta = va - np.outer(va @ n, n)
        tb = vb - np.outer(vb @ n, n)
        assert np.allclose(ta, tb, atol=1e-11)


def test_boundary_flags_cover_the_boundary(eight_tri):
    basis = conforming_basis("h1", 3, 2)
    cmap = conforming_map(eight_tri, basis)
    # vertex + edge dofs on the boundary: 8 vertices + 2 per boundary edge
    assert int(cmap.boundary.sum()) == 8 + 2 * 8


def test_element_tables_constant_gradient(eight_tri):
    basis = conforming_basis("h1", 1, 2)
    tables = ElementTables(eight_tri, basis)
    ones = np.ones(3)
    for ci in range(eight_tri.ncells):
        g = np.einsum("f,fpc->pc", ones, pushed_derivs(tables, ci))
        assert np.max(np.abs(g)) < 1e-13


def test_piecewise_volume_integrals(eight_tri):
    basis = conforming_basis("h1", 1, 2)
    tables = ElementTables(eight_tri, basis)
    total = sum(tables.volume_weights(ci).sum()
                for ci in range(eight_tri.ncells))
    assert abs(total - 1.0) < 1e-13


@pytest.mark.parametrize("dim,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_flux_basis_is_the_facet_modal_basis(dim, p):
    """The flux dofs carry one unit per facet area: the normal traces of
    the H(div) skeleton functions of a facet are its orthonormal modal
    basis, so the trace mass is diagonal, |F| (d-1)! per function."""
    mesh = refine_uniform(build_structured(
        "unit-square" if dim == 2 else "unit-cube", 1))
    disc = Discretization(make_formulation("primal_poisson", p, dim=dim),
                          mesh)
    space = disc._interfaces["sighat"]
    nb = space.dofmap.ndofs // mesh.nfacets
    want = np.diag(np.repeat(mesh.facet_areas * math.factorial(dim - 1), nb))
    got = space.mass.toarray()
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(want)
