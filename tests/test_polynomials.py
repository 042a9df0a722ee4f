"""Exact polynomial calculus on coefficient arrays and space dimensions."""

import numpy as np
import pytest

from dpgfem.polynomials import (
    Polys,
    family_generators,
    monomials,
    space_dimension,
    trace_dimension,
)


def random_poly(rng, dim, ncomp, degree):
    """One field: a random combination of the monomials up to a degree."""
    monos = monomials(dim, degree, ncomp)
    coefs = rng.standard_normal(len(monos))
    return Polys(monos.exponents, np.tensordot(coefs, monos.coeffs, axes=1)[None])


def values(poly, pts):
    """The one field's values at the points, (npts, ncomp)."""
    return poly.eval(pts)[0]


def finite_difference(fn, pts, axis, h=1e-6):
    ph = pts.copy()
    ph[:, axis] += h
    mh = pts.copy()
    mh[:, axis] -= h
    return (fn(ph) - fn(mh)) / (2 * h)


def derivative(family, gens):
    """The family derivative of the generators."""
    if family in ("h1", "l2"):
        return gens.grad()
    return gens.div() if family == "hdiv" else gens.curl()


@pytest.mark.parametrize("dim", [2, 3])
def test_grad_matches_finite_difference(dim, rng):
    q = random_poly(rng, dim, 1, 3)
    pts = rng.random((20, dim))
    g = values(q.grad(), pts)
    for axis in range(dim):
        fd = finite_difference(lambda x: values(q, x)[:, 0], pts, axis)
        assert np.allclose(g[:, axis], fd, atol=1e-7)


def test_div_and_curl_match_finite_difference(rng):
    v = random_poly(rng, 3, 3, 3)
    pts = rng.random((20, 3))

    def comp(c):
        return lambda x: values(v, x)[:, c]

    dv = values(v.div(), pts)[:, 0]
    fd = sum(finite_difference(comp(c), pts, c) for c in range(3))
    assert np.allclose(dv, fd, atol=1e-6)
    cv = values(v.curl(), pts)
    for c, (a, b) in enumerate([(1, 2), (2, 0), (0, 1)]):
        fd = finite_difference(comp(b), pts, a) - finite_difference(comp(a), pts, b)
        assert np.allclose(cv[:, c], fd, atol=1e-6)


def test_rot_and_products_with_x_match_point_values(rng):
    pts = rng.random((20, 3))
    v = random_poly(rng, 3, 3, 3)
    assert np.allclose(values(v.cross_x(), pts), np.cross(pts, values(v, pts)))
    q = random_poly(rng, 3, 1, 3)
    assert np.allclose(values(q.times_x(), pts), pts * values(q, pts))
    w = random_poly(rng, 2, 2, 3)
    x = pts[:, :2]
    rotated = values(w.rot90(), x)
    assert np.allclose(rotated, values(w, x)[:, ::-1] * [-1.0, 1.0])
    fd = finite_difference(lambda y: values(w, y)[:, 1], x, 0) \
        - finite_difference(lambda y: values(w, y)[:, 0], x, 1)
    assert np.allclose(values(w.curl(), x)[:, 0], fd, atol=1e-6)


def test_curl_of_gradient_vanishes(rng):
    q = random_poly(rng, 3, 1, 4)
    curl = q.grad().curl()
    assert curl.coeffs.shape == (1, 3, 0)
    assert curl.exponents.shape == (0, 3)


def test_rot_of_rotated_gradient(rng):
    # in 2D, rot(grad q) = 0 term by term
    q = random_poly(rng, 2, 1, 4)
    assert q.grad().curl().coeffs.shape == (1, 1, 0)


def test_cancelled_terms_leave_the_exponent_table(rng):
    """Exponents keep lexicographic order and hold only the terms some
    coefficient uses."""
    v = random_poly(rng, 3, 3, 4)
    for poly in (v, v.curl(), v.div(), v.cross_x(), v.div().grad()):
        e = poly.exponents
        assert all(tuple(a) < tuple(b) for a, b in zip(e[:-1], e[1:]))
        assert poly.coeffs.any(axis=(0, 1)).all()
    # integer coefficients cancel exactly: div curl of the monomials
    assert monomials(3, 4, 3).curl().div().coeffs.shape == (105, 1, 0)


DIM_TABLE = [
    ("h1", 2, 2, 6),
    ("h1", 2, 3, 10),
    ("h1", 3, 3, 20),
    ("hcurl", 1, 3, 6),
    ("hcurl", 2, 3, 20),
    ("hdiv", 1, 3, 4),
    ("hdiv", 2, 3, 15),
    ("hcurl", 1, 2, 3),
    ("hdiv", 1, 2, 3),
    ("l2", 0, 2, 1),
]


@pytest.mark.parametrize("family,p,dim,expected", DIM_TABLE)
def test_dimension_table(family, p, dim, expected):
    assert space_dimension(family, p, dim) == expected


def _rank(polys, pts):
    rows = polys.eval(pts).reshape(len(polys), -1)
    return np.linalg.matrix_rank(rows, tol=1e-9)


@pytest.mark.parametrize("family", ["h1", "hcurl", "hdiv", "vec"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_generators_span_the_stated_dimension(family, dim, p, rng):
    """Numerical rank of the generating set equals the dimension formula."""
    gens, _ = family_generators(family, p, dim)
    pts = rng.random((3 * len(gens) + 20, dim))
    assert _rank(gens, pts) == space_dimension(family, p, dim)


def test_generator_prefixes_span_lower_orders(rng):
    """The generators before each group bound span the family of that
    order, so orthonormalizing in order grades the basis."""
    p = 4
    for family, dim in [("h1", 2), ("h1", 3), ("hdiv", 2), ("hdiv", 3),
                        ("hcurl", 2), ("hcurl", 3), ("vec", 3)]:
        gens, bounds = family_generators(family, p, dim)
        first = 1 if family in ("hdiv", "hcurl") else 0
        assert len(bounds) == p - first + 2
        assert bounds[0] == 0 and bounds[-1] == len(gens)
        pts = rng.random((3 * len(gens) + 20, dim))
        for order, end in enumerate(bounds[1:], start=first):
            prefix = Polys(gens.exponents, gens.coeffs[:end])
            assert _rank(prefix, pts) == space_dimension(family, order, dim), \
                (family, dim, order)


def test_hcurl_needs_positive_degree():
    with pytest.raises(ValueError, match="hcurl needs degree >= 1, got 0"):
        family_generators("hcurl", 0, 3)
    with pytest.raises(ValueError, match="hdiv needs degree >= 1, got 0"):
        family_generators("hdiv", 0, 2)


def test_exact_sequence_on_generators(rng):
    """grad P_p lands in N_p, curl N_p in R_p, div R_p in P_{p-1}."""
    p = 2
    pts = rng.random((80, 3))

    def span_matrix(family, degree):
        gens, _ = family_generators(family, degree, 3)
        return gens.eval(pts).reshape(len(gens), -1)

    def in_span(fields, M):
        rows = fields.eval(pts).reshape(len(fields), -1)
        coef, *_ = np.linalg.lstsq(M.T, rows.T, rcond=None)
        res = np.linalg.norm(M.T @ coef - rows.T, axis=0)
        return np.all(res < 1e-9 * np.maximum(np.linalg.norm(rows, axis=1), 1.0))

    N = span_matrix("hcurl", p)
    R = span_matrix("hdiv", p)
    P = span_matrix("l2", p - 1)
    assert in_span(family_generators("h1", p, 3)[0].grad(), N)
    assert in_span(family_generators("hcurl", p, 3)[0].curl(), R)
    assert in_span(family_generators("hdiv", p, 3)[0].div(), P)


@pytest.mark.parametrize("family", ["h1", "hcurl", "hdiv", "vec"])
@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_trace_dimension_is_the_span_less_its_interior(family, k):
    """The surface trace dimension on a tetrahedron is the span less the
    fields with vanishing trace: the interior functions of the conforming
    basis."""
    from dpgfem.reference import conforming_basis

    basis = conforming_basis(family, k, 3)
    interior = sum(c for kind, _, c in basis.entity_dofs if kind == "interior")
    assert trace_dimension(family, k) == space_dimension(family, k, 3) - interior


def _monomial_points(dim):
    """Point sets the monomial tables are evaluated at: the volume, face
    and edge rules of the Fortin and duality spaces, the same points
    centred at the centroid as the modal bases take them, and random
    points with exact zeros, signed zeros and negative coordinates."""
    from dpgfem.fortin import REFERENCE_TET, TetQuadrature
    from dpgfem.quadrature import simplex_rule

    sets = []
    for order in (2, 4, 10, 14, 18):
        if dim == 3:
            quad = TetQuadrature(REFERENCE_TET, order)
            sets += [quad.vol_ref, quad.face_ref.reshape(-1, 3),
                     quad.edge_ref.reshape(-1, 3)]
        else:
            sets.append(simplex_rule(2, order).points)
    sets += [pts - 1.0 / (dim + 1) for pts in sets]
    rng = np.random.default_rng(7)
    mixed = rng.uniform(-1.5, 1.5, (60, dim))
    mixed[::3, 0] = 0.0
    mixed[1::4, -1] = -0.0
    mixed[:5] = 0.0
    sets.append(mixed)
    return np.concatenate(sets)


def _term_by_term(exponents, points):
    """prod_axis points ** alpha for one exponent tuple alpha at a time."""
    return np.stack([np.prod(points ** alpha, axis=1) for alpha in exponents],
                    axis=1)


@pytest.mark.parametrize("family", ["h1", "l2", "hdiv", "hcurl", "vec"])
@pytest.mark.parametrize("dim", [2, 3])
def test_monomial_tables_are_bit_identical_to_term_by_term(family, dim):
    """Polys.monomials of the generators and of their family derivatives
    equals the term-by-term product exactly, not to a tolerance: every
    modal basis, and so every record, is built on it."""
    pts = _monomial_points(dim)
    first = 1 if family in ("hdiv", "hcurl") else 0
    for degree in range(first, 8):
        gens, _ = family_generators(family, degree, dim)
        for polys in (gens, derivative(family, gens)):
            if not len(polys.exponents):
                continue  # the derivatives of constants
            mono = polys.monomials(pts)
            assert mono.flags.c_contiguous
            assert np.array_equal(
                mono, _term_by_term(polys.exponents, pts)), \
                (family, dim, degree)
