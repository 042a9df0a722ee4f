"""Quadrature exactness against analytic simplex monomial integrals."""

from fractions import Fraction
from math import factorial

import numpy as np
import pytest
from scipy.special import roots_jacobi, roots_legendre

from dpgfem.fortin import REFERENCE_TET, TET_EDGES, TetQuadrature
from dpgfem.quadrature import MAX_ORDER, _gauss01, _gauss_line, _jacobi01, \
    simplex_rule


def monomial_integral(expo):
    """Exact integral of prod x_i^a_i over the unit simplex."""
    num = 1
    for a in expo:
        num *= factorial(a)
    return num / factorial(sum(expo) + len(expo))


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_weights_positive_and_sum_to_measure(dim):
    measure = {1: 1.0, 2: 0.5, 3: 1.0 / 6.0}[dim]
    for order in (0, 1, 4, 9):
        rule = simplex_rule(dim, order)
        assert np.all(rule.weights > 0)
        assert abs(rule.weights.sum() - measure) < 1e-14


@pytest.mark.parametrize("dim,order", [(2, 2), (2, 7), (2, 16), (3, 3),
                                       (3, 8), (3, 14)])
def test_monomial_exactness(dim, order, rng):
    rule = simplex_rule(dim, order)
    for _ in range(12):
        expo = rng.integers(0, order + 1, size=dim)
        while expo.sum() > order:
            expo = rng.integers(0, order + 1, size=dim)
        vals = np.prod(rule.points ** expo[None, :], axis=1)
        exact = monomial_integral(expo)
        assert abs(rule.weights @ vals - exact) < 1e-13 * max(abs(exact), 1)


def _loop_rule(dim, order):
    """The conical product rule built point by point, each coordinate
    and weight a product taken left to right."""
    n = max(1, (order + 2) // 2)
    xi, wxi = _gauss01(n)
    eta, weta = _jacobi01(n, 1.0)
    zeta, wzeta = _jacobi01(n, 2.0)
    X, W = [], []
    if dim == 1:
        return xi.reshape(-1, 1), wxi
    if dim == 2:
        for j in range(n):
            for i in range(n):
                X.append((xi[i] * (1.0 - eta[j]), eta[j]))
                W.append(wxi[i] * weta[j])
        return np.array(X), np.array(W)
    for l in range(n):
        for j in range(n):
            for i in range(n):
                X.append((xi[i] * (1.0 - eta[j]) * (1.0 - zeta[l]),
                          eta[j] * (1.0 - zeta[l]), zeta[l]))
                W.append(wxi[i] * weta[j] * wzeta[l])
    return np.array(X), np.array(W)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_rules_match_point_by_point_construction(dim):
    for order in range(MAX_ORDER[dim] + 1):
        rule = simplex_rule(dim, order)
        X, W = _loop_rule(dim, order)
        assert np.array_equal(rule.points, X), order
        assert np.array_equal(rule.weights, W), order


def _lines(dim):
    """(n, alpha) of every line that a rule in ``dim`` up to
    ``MAX_ORDER`` can read: simplex_rule takes (order + 2) // 2 points
    per line, and the point by point construction above reads all three
    lines in every dimension."""
    return [(n, alpha) for alpha in (0, 1, 2)
            for n in range(1, (MAX_ORDER[dim] + 2) // 2 + 1)]


def _moment_errors(x, w, alpha):
    """Relative errors of the line's integrals of t**j (1 - t)**alpha on
    [0, 1], t = (x + 1) / 2, for j < 2n: its nodes and weights are taken
    as the exact binary fractions they are, and summed in exact integer
    arithmetic over the common denominators 2**K and 2**L."""
    t = [(Fraction(v) + 1) / 2 for v in x.tolist()]
    wf = [Fraction(v) / 2 ** (alpha + 1) for v in w.tolist()]
    K = max(f.denominator for f in t).bit_length() - 1
    L = max(f.denominator for f in wf).bit_length() - 1
    T = [f.numerator << (K - f.denominator.bit_length() + 1) for f in t]
    P = [f.numerator << (L - f.denominator.bit_length() + 1) for f in wf]
    errors = []
    for j in range(2 * len(t)):
        num = factorial(j) * factorial(alpha)
        den = factorial(j + alpha + 1)
        scale = 1 << (L + K * j)
        errors.append(abs(sum(P) * den - num * scale) / (num * scale))
        P = [p * ti for p, ti in zip(P, T)]
    return errors


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gauss_lines_integrate_the_exact_moments(dim):
    # 5e-15 is about the rounding of the nodes near 1 amplified by
    # j < 62; scipy.special's lines miss it by 3x or more (1.6e-13,
    # 1.8e-14 and 1.6e-14 for alpha 0, 1 and 2)
    for n, alpha in _lines(dim):
        x, w = _gauss_line(n, alpha)
        assert x.shape == w.shape == (n,) and np.all(w > 0), (n, alpha)
        assert np.all(np.diff(x) > 0) and -1 < x[0] and x[-1] < 1
        assert max(_moment_errors(x, w, alpha)) < 5e-15, (n, alpha)


def test_gauss_lines_match_scipy_special():
    # the 1D rules read the longest lines, so these are all of them
    for n, alpha in _lines(1):
        ref = roots_legendre(n) if alpha == 0 else \
            roots_jacobi(n, float(alpha), 0.0)
        for got, want in zip(_gauss_line(n, alpha), ref):
            assert np.allclose(got, want, rtol=1.2e-12, atol=0), (n, alpha)


@pytest.mark.parametrize("dim,order,name", [
    (2, 2.5, "order"), (2, 3.0, "order"), (2, True, "order"),
    (2, "3", "order"), (2, None, "order"), (2.0, 3, "dim"),
    (True, 3, "dim"), ("2", 3, "dim")])
def test_non_integer_input_rejected(dim, order, name):
    # also when an equal int rule is cached
    simplex_rule(2, 3)
    simplex_rule(1, 3)
    with pytest.raises(ValueError, match=f"{name} must be an integer"):
        simplex_rule(dim, order)


def test_numpy_integer_input_gives_the_int_rule():
    rule = simplex_rule(np.int64(2), np.int64(3))
    assert type(rule.dim) is int and type(rule.order) is int
    assert rule is simplex_rule(2, 3)


def test_x_squared_on_triangle():
    rule = simplex_rule(2, 2)
    got = rule.weights @ rule.points[:, 0] ** 2
    assert abs(got - 1.0 / 12.0) < 1e-14


def test_constant_on_tet():
    rule = simplex_rule(3, 0)
    assert abs(rule.weights.sum() - 1.0 / 6.0) < 1e-14


@pytest.mark.parametrize("dim", [2, 3])
def test_unsupported_order_rejected(dim):
    with pytest.raises(ValueError):
        simplex_rule(dim, MAX_ORDER[dim] + 1)
    with pytest.raises(ValueError):
        simplex_rule(dim, -1)


def test_tet_face_weights_sum_to_face_areas():
    """Face rule weights must integrate 1 to the true triangle areas."""
    quad = TetQuadrature(REFERENCE_TET, 6)
    faces = [(1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)]
    for fi, (a, b, c) in enumerate(faces):
        va, vb, vc = (REFERENCE_TET[i] for i in (a, b, c))
        area = 0.5 * np.linalg.norm(np.cross(vb - va, vc - va))
        assert abs(quad.face_weights[fi].sum() - area) < 1e-13

    skewed = np.array([[0.1, 0.0, 0.0], [1.3, 0.2, -0.1],
                       [0.2, 1.1, 0.3], [-0.2, 0.4, 1.2]])
    quad = TetQuadrature(skewed, 6)
    for fi, (a, b, c) in enumerate(faces):
        va, vb, vc = (skewed[i] for i in (a, b, c))
        area = 0.5 * np.linalg.norm(np.cross(vb - va, vc - va))
        assert abs(quad.face_weights[fi].sum() - area) < 1e-12


def test_tet_volume_and_edge_rules():
    quad = TetQuadrature(REFERENCE_TET, 4)
    assert abs(quad.vol_weights.sum() - 1.0 / 6.0) < 1e-14
    # each edge rule integrates 1 to the edge length
    for ei, (a, b) in enumerate(TET_EDGES):
        length = np.linalg.norm(REFERENCE_TET[b] - REFERENCE_TET[a])
        assert abs(quad.edge_weights[ei].sum() - length) < 1e-13
