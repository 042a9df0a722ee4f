"""Quadrature rules on reference simplices.

Rules are conical products of Gauss-Legendre and Gauss-Jacobi lines mapped
through the collapsed-coordinate (Duffy) transform.  All weights are
strictly positive and the rules are exact for polynomials up to the
requested total degree.

The lines come from a table, ``_gauss_lines.LINES``: the nodes and
weights on [-1, 1] that ``scipy.special`` 1.17.1 writes, stored as
``float.hex`` text and parsed once at import.  A table, not a rule
computed here, keeps every rule bit-identical to the one that scipy's
lines give, and with it every pinned basis and report; and no dpgfem
process pays for importing ``scipy.special``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ._gauss_lines import LINES
from .meshes import _integer

MAX_ORDER = {1: 60, 2: 40, 3: 30}


@dataclass(frozen=True)
class QuadratureRule:
    """Points and weights integrating over the unit reference simplex."""

    dim: int
    order: int
    points: np.ndarray
    weights: np.ndarray


# (alpha, n) -> the nodes and weights of the n-point Gauss line for the
# weight (1 - x)**alpha on [-1, 1]
_LINES = {key: tuple(np.array([float.fromhex(h) for h in text.split()])
                     for text in pair)
          for key, pair in LINES.items()}


def _gauss01(n):
    x, w = _LINES[0, n]
    return 0.5 * (x + 1.0), 0.5 * w


def _jacobi01(n, alpha):
    # nodes/weights for integral over (0,1) with weight (1-x)**alpha
    x, w = _LINES[alpha, n]
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
