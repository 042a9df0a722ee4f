"""Quadrature rules on reference simplices.

Rules are conical products of Gauss-Legendre and Gauss-Jacobi lines mapped
through the collapsed-coordinate (Duffy) transform.  All weights are
strictly positive and the rules are exact for polynomials up to the
requested total degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

MAX_ORDER = {1: 60, 2: 40, 3: 30}


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights integrating over the unit reference simplex."""

    dim: int
    order: int
    points: np.ndarray
    weights: np.ndarray


def _gauss01(n):
    x, w = roots_legendre(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi01(n, alpha):
    # nodes/weights for integral over (0,1) with weight (1-x)**alpha
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


@lru_cache(maxsize=None)
def simplex_rule(dim, order):
    """Return a positive-weight rule exact to the given total degree."""
    if dim not in (1, 2, 3):
        raise ValueError("dim must be 1, 2 or 3")
    if order < 0:
        raise ValueError("order must be nonnegative")
    if order > MAX_ORDER[dim]:
        raise ValueError(f"order {order} exceeds supported maximum {MAX_ORDER[dim]}")
    n = max(1, (order + 2) // 2)
    if dim == 1:
        x, w = _gauss01(n)
        return QuadratureRule(1, order, x.reshape(-1, 1), w)
    if dim == 2:
        xi, wxi = _gauss01(n)
        eta, weta = _jacobi01(n, 1.0)
        X = np.empty((n * n, 2))
        W = np.empty(n * n)
        k = 0
        for j in range(n):
            for i in range(n):
                X[k, 0] = xi[i] * (1.0 - eta[j])
                X[k, 1] = eta[j]
                W[k] = wxi[i] * weta[j]
                k += 1
        return QuadratureRule(2, order, X, W)
    xi, wxi = _gauss01(n)
    eta, weta = _jacobi01(n, 1.0)
    zeta, wzeta = _jacobi01(n, 2.0)
    X = np.empty((n ** 3, 3))
    W = np.empty(n ** 3)
    k = 0
    for l in range(n):
        for j in range(n):
            for i in range(n):
                X[k, 0] = xi[i] * (1.0 - eta[j]) * (1.0 - zeta[l])
                X[k, 1] = eta[j] * (1.0 - zeta[l])
                X[k, 2] = zeta[l]
                W[k] = wxi[i] * weta[j] * wzeta[l]
                k += 1
    return QuadratureRule(3, order, X, W)


def reference_volume(dim):
    return 1.0 / math.factorial(dim)
