"""The surface coefficients of the Fortin tetrahedron.

``TetQuadrature.surface`` holds functions on the tetrahedron's boundary
as coefficients over an orthonormal per-face basis; the Fortin spaces
and the duality workspaces both work in them.  For data whose traces
lie in that basis, dot products of coefficients must be the face
integrals the weighted point sums give, on the reference tetrahedron
and on small and large distorted ones.
"""

import numpy as np
import pytest

from dpgfem.fortin import SHAPE_FAMILY, TetQuadrature, _piecewise_boundary
from dpgfem.reference import modal_basis

ORDER = 8
SHAPES = [("reference", 1.0), ("sheared", 1e-2), ("aspect10", 10.0)]
# trace kind, the family whose degree ORDER // 2 span supplies data and
# the number of trace components per face: in-face data keep two
KINDS = [("value", "h1", 1), ("normal", "vec", 1), ("tangential", "vec", 2),
         ("rotated", "vec", 2)]


def _quad(shape, lam):
    return TetQuadrature(SHAPE_FAMILY[shape] * lam, ORDER)


@pytest.mark.parametrize("shape,lam", SHAPES)
@pytest.mark.parametrize("kind,family,r", KINDS)
def test_coefficient_products_are_face_integrals(shape, lam, kind, family, r):
    quad = _quad(shape, lam)
    vals = quad.span(family, ORDER // 2, quad.face_ref)
    c = quad.surface(vals, kind)
    t = quad.trace(vals, kind)
    pts = np.einsum("ifqr,jfqr,fq->ij", t, t, quad.face_weights)
    assert c.shape == (len(vals), 4 * r * quad.face_basis.shape[1])
    assert np.abs(c @ c.T - pts).max() <= 1e-12 * np.abs(pts).max()


@pytest.mark.parametrize("shape,lam", SHAPES)
def test_tangential_and_rotated_coefficients_have_equal_norms(shape, lam):
    quad = _quad(shape, lam)
    vals = quad.span("vec", ORDER // 2, quad.face_ref)
    nt = np.linalg.norm(quad.surface(vals, "tangential"), axis=1)
    nr = np.linalg.norm(quad.surface(vals, "rotated"), axis=1)
    assert np.abs(nt - nr).max() <= 1e-12 * nt.max()


@pytest.mark.parametrize("shape,lam", SHAPES)
@pytest.mark.parametrize("m", [0, 2, ORDER // 2])
def test_piecewise_rows_are_the_per_face_modal_functions(shape, lam, m):
    quad = _quad(shape, lam)
    phi = modal_basis("l2", m, 2).values(quad.face_params)[:, :, 0]
    # phi_j on face f alone, as point values (4 nb_m, 4, nq, 1)
    blocks = np.zeros((4, len(phi)) + quad.face_weights.shape + (1,))
    for f in range(4):
        blocks[f, :, f, :, 0] = phi
    c = quad.surface(blocks.reshape((-1,) + blocks.shape[2:]), "value")
    # a modal function has unit norm on the reference triangle, so norm
    # sqrt(2 area) on a face of the tetrahedron
    scale = np.repeat(np.sqrt(2.0 * quad.face_weights.sum(axis=1)), len(phi))
    rows = _piecewise_boundary(quad, m)
    assert rows.shape == c.shape
    assert np.abs(c / scale[:, None] - rows).max() <= 1e-12
