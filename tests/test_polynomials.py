"""Exact monomial calculus and polynomial space dimensions."""

import numpy as np
import pytest

from dpgfem.polynomials import (
    CompiledPolys,
    Poly,
    family_generator_groups,
    scalar_monomials,
    space_dimension,
    vector_monomials,
)


def random_poly(rng, dim, ncomp, degree):
    q = Poly(dim, ncomp)
    source = scalar_monomials if ncomp == 1 else vector_monomials
    for k in range(degree + 1):
        for mono in source(dim, k):
            q = q + float(rng.standard_normal()) * mono
    return q


def finite_difference(fn, pts, axis, h=1e-6):
    ph = pts.copy()
    ph[:, axis] += h
    mh = pts.copy()
    mh[:, axis] -= h
    return (fn(ph) - fn(mh)) / (2 * h)


@pytest.mark.parametrize("dim", [2, 3])
def test_grad_matches_finite_difference(dim, rng):
    q = random_poly(rng, dim, 1, 3)
    pts = rng.random((20, dim))
    g = q.grad()(pts)
    for axis in range(dim):
        fd = finite_difference(q, pts, axis)
        assert np.allclose(g[:, axis], fd, atol=1e-7)


def test_div_and_curl_match_finite_difference(rng):
    v = random_poly(rng, 3, 3, 3)
    pts = rng.random((20, 3))
    dv = v.div()(pts)
    fd = sum(finite_difference(lambda x, c=c: v(x)[:, c], pts, c)
             for c in range(3))
    assert np.allclose(dv, fd, atol=1e-6)
    cv = v.curl3d()(pts)
    fd0 = finite_difference(lambda x: v(x)[:, 2], pts, 1) \
        - finite_difference(lambda x: v(x)[:, 1], pts, 2)
    assert np.allclose(cv[:, 0], fd0, atol=1e-6)


def test_curl_of_gradient_vanishes(rng):
    q = random_poly(rng, 3, 1, 4)
    assert not q.grad().curl3d().terms


def test_rot_of_rotated_gradient(rng):
    # in 2D, rot(grad q) = 0 term by term
    q = random_poly(rng, 2, 1, 4)
    g = q.grad()
    assert not Poly(2, 2, g.terms).rot2d().terms


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


@pytest.mark.parametrize("family", ["h1", "hcurl", "hdiv", "vec"])
@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
def test_generators_span_the_stated_dimension(family, dim, p, rng):
    """Numerical rank of the generating set equals the dimension formula."""
    gens = [g for group in family_generator_groups(family, p, dim)
            for g in group]
    pts = rng.random((3 * len(gens) + 20, dim))
    rows = np.array([np.ravel(g(pts)) for g in gens])
    rank = np.linalg.matrix_rank(rows, tol=1e-9)
    assert rank == space_dimension(family, p, dim)


def test_generator_prefixes_span_lower_orders():
    groups = family_generator_groups("hdiv", 3, 3)
    assert len(groups) == 3
    sizes = np.cumsum([len(g) for g in groups])
    assert sizes[-1] >= space_dimension("hdiv", 3, 3)


def test_hcurl_needs_positive_degree():
    with pytest.raises(ValueError):
        family_generator_groups("hcurl", 0, 3)
    with pytest.raises(ValueError):
        family_generator_groups("hdiv", 0, 2)


def test_exact_sequence_on_generators(rng):
    """grad P_p lands in N_p, curl N_p in R_p, div R_p in P_{p-1}."""
    p = 2
    pts = rng.random((80, 3))

    def span_matrix(family, degree, ncomp):
        gens = [g for grp in family_generator_groups(family, degree, 3)
                for g in grp]
        return np.array([np.ravel(g(pts)) for g in gens])

    def in_span(vec, M):
        coef, *_ = np.linalg.lstsq(M.T, vec, rcond=None)
        return np.linalg.norm(M.T @ coef - vec) < 1e-9 * max(
            np.linalg.norm(vec), 1.0)

    N = span_matrix("hcurl", p, 3)
    R = span_matrix("hdiv", p, 3)
    P = span_matrix("l2", p - 1, 1)
    for mono in scalar_monomials(3, p):
        assert in_span(np.ravel(mono.grad()(pts)), N)
    for grp in family_generator_groups("hcurl", p, 3):
        for g in grp:
            assert in_span(np.ravel(g.curl3d()(pts)), R)
    for grp in family_generator_groups("hdiv", p, 3):
        for g in grp:
            assert in_span(np.ravel(g.div()(pts)), P)


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
    """CompiledPolys.monomials of the generators and of their family
    derivatives equals the term-by-term product exactly, not to a
    tolerance: every modal basis, and so every record, is built on it."""
    pts = _monomial_points(dim)
    first = 1 if family in ("hdiv", "hcurl") else 0
    for degree in range(first, 8):
        gens = [g for group in family_generator_groups(family, degree, dim)
                for g in group]
        if family in ("h1", "l2"):
            ders = [g.grad() for g in gens]
        elif family == "hdiv":
            ders = [g.div() for g in gens]
        else:
            ders = [g.curl3d() if dim == 3 else g.rot2d() for g in gens]
        for polys in (gens, ders):
            compiled = CompiledPolys(polys)
            if not len(compiled.exponents):
                continue  # the derivatives of constants
            mono = compiled.monomials(pts)
            assert mono.flags.c_contiguous
            assert np.array_equal(
                mono, _term_by_term(compiled.exponents, pts)), \
                (family, dim, degree)
