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
    # the conical product grid with xi varying fastest; each coordinate
    # and weight is a product taken left to right
    xi, wxi = _gauss01(n)
    eta, weta = _jacobi01(n, 1.0)
    if dim == 2:
        X = np.stack([(xi * (1.0 - eta)[:, None]).ravel(),
                      np.repeat(eta, n)], axis=1)
        return QuadratureRule(2, order, X, (wxi * weta[:, None]).ravel())
    zeta, wzeta = _jacobi01(n, 2.0)
    z = (1.0 - zeta)[:, None, None]
    shape = (n, n, n)
    X = np.stack([xi * (1.0 - eta)[:, None] * z,
                  np.broadcast_to(eta[:, None] * z, shape),
                  np.broadcast_to(zeta[:, None, None], shape)], axis=-1)
    W = wxi * weta[:, None] * wzeta[:, None, None]
    return QuadratureRule(3, order, X.reshape(-1, 3), W.ravel())


def reference_volume(dim):
    return 1.0 / math.factorial(dim)
