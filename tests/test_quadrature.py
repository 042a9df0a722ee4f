"""Quadrature exactness against analytic simplex monomial integrals."""

from math import factorial
from pathlib import Path

import numpy as np
import pytest

from dpgfem import _gauss_lines
from dpgfem.fortin import REFERENCE_TET, TET_EDGES, TetQuadrature
from dpgfem.quadrature import MAX_ORDER, _gauss01, _jacobi01, simplex_rule
from oracles import gauss_lines


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


def test_gauss_line_table_is_what_scipy_writes():
    # the committed text, bit for bit: every node and weight as float.hex
    text = Path(_gauss_lines.__file__).read_text(encoding="utf-8")
    assert text == gauss_lines()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_gauss_line_table_covers_max_order(dim):
    # simplex_rule takes (order + 2) // 2 points per line; the point by
    # point construction reads all three lines in every dimension
    for n in range(1, (MAX_ORDER[dim] + 2) // 2 + 1):
        for alpha in (0, 1, 2):
            nodes, weights = (text.split()
                              for text in _gauss_lines.LINES[alpha, n])
            assert len(nodes) == len(weights) == n, (alpha, n)


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
