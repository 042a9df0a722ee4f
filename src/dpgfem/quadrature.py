"""Quadrature rules on reference simplices.

Rules are conical products of Gauss-Legendre and Gauss-Jacobi lines mapped
through the collapsed-coordinate (Duffy) transform.  All weights are
strictly positive and the rules are exact for polynomials up to the
requested total degree.

The lines are computed by the method of Golub and Welsch ("Calculation of
Gauss quadrature rules", Math. Comp. 23, 1969): the nodes are the
eigenvalues of the Jacobi matrix of the weight's orthonormal polynomials,
polished by one Newton step on their three-term recurrence, and the
weights are the Christoffel numbers 1 / sum_k p_k(x)**2.  The eigenvalues
come from ``scipy.linalg``, which the solver loads anyway, so no dpgfem
process pays for importing ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .meshes import _integer

MAX_ORDER = {1: 60, 2: 40, 3: 30}


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights integrating over the unit reference simplex."""

    dim: int
    order: int
    points: np.ndarray
    weights: np.ndarray


@lru_cache(maxsize=None)
def _gauss_line(n, alpha):
    """The nodes and weights of the n-point Gauss rule for the weight
    (1 - x)**alpha on [-1, 1]."""
    # the recurrence b_{k+1} p_{k+1} = (x - a_k) p_k - b_k p_{k-1} of the
    # orthonormal Jacobi polynomials, with b_0 = 0
    k = np.arange(n + 1.0)
    s = 2.0 * k + alpha
    a = -alpha ** 2 / (s * (s + 2.0)) if alpha else np.zeros(n + 1)
    b = np.zeros(n + 1)
    b[1:] = np.sqrt(4.0 * (k[1:] * (k[1:] + alpha)) ** 2
                    / (s[1:] ** 2 * (s[1:] + 1.0) * (s[1:] - 1.0)))
    x = eigh_tridiagonal(a[:n], b[1:n], eigvals_only=True)

    def recurrence(x):
        # sum_{k<n} p_k(x)**2, p_n(x) and p_n'(x), for p_0 = 1
        p, p_prev = np.ones(n), np.zeros(n)
        dp, dp_prev = np.zeros(n), np.zeros(n)
        squares = np.zeros(n)
        for j in range(n):
            squares += p * p
            p, p_prev = ((x - a[j]) * p - b[j] * p_prev) / b[j + 1], p
            dp, dp_prev = ((p_prev + (x - a[j]) * dp - b[j] * dp_prev)
                           / b[j + 1], dp)
        return squares, p, dp

    # one Newton step on p_n, then the Christoffel weights at the nodes
    _, p, dp = recurrence(x)
    x = x - p / dp
    w = 2.0 ** (alpha + 1) / (alpha + 1) / recurrence(x)[0]
    if not alpha:
        # the Legendre line is symmetric: reflect its upper half
        h = n // 2
        x[:h], w[:h] = -x[::-1][:h], w[::-1][:h]
        x[h:n - h] = 0.0
    return x, w


def _gauss01(n):
    x, w = _gauss_line(n, 0)
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi01(n, alpha):
    # nodes/weights for integral over (0,1) with weight (1-x)**alpha
    x, w = _gauss_line(n, alpha)
    return 0.5 * (x + 1.0), w / 2.0 ** (alpha + 1)


def simplex_rule(dim, order):
    """Return a positive-weight rule exact to the given total degree."""
    if _integer("dim", dim) not in (1, 2, 3):
        raise ValueError(f"dim must be 1, 2 or 3, got {dim}")
    if _integer("order", order) < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    if order > MAX_ORDER[dim]:
        raise ValueError(f"order {order} exceeds supported maximum {MAX_ORDER[dim]}")
    return _simplex_rule(int(dim), int(order))


@lru_cache(maxsize=None)
def _simplex_rule(dim, order):
    # checked and cached apart, so that a float or bool argument that
    # compares equal to a cached int is rejected, not served
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
