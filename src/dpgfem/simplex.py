"""Reference simplex conventions shared by the mesh and element layers.

Local entities are always listed in lexicographic order of their local
vertex index tuples.  Cells store global vertex ids in ascending order, so
local index order and global id order coincide on every entity.  That
single convention is what makes traces from neighbouring cells match
without per-facet permutation tables.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, sqrt

import numpy as np

REF_VERTICES = {
    1: np.array([[0.0], [1.0]]),
    2: np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
    3: np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
}


def local_entities(dim, entity_dim):
    """Local vertex index tuples of all entities of a given dimension."""
    return list(itertools.combinations(range(dim + 1), entity_dim + 1))


def local_edges(dim):
    return local_entities(dim, 1)


def local_facets(dim):
    return local_entities(dim, dim - 1)


def facet_parametrization(dim, local_facet):
    """Affine map from the unit (dim-1)-simplex onto a reference facet.

    Returns (A, b) with facet point = b + A @ s for s in the unit
    (dim-1)-simplex.  Vertex k of the parameter simplex maps onto the k-th
    vertex of the facet tuple, so the parametrization respects ascending
    vertex order.
    """
    verts = REF_VERTICES[dim][list(local_facet)]
    b = verts[0].copy()
    A = (verts[1:] - verts[0]).T
    return A, b


@lru_cache(maxsize=None)
def facet_measure(dim, local_facet):
    """Surface measure of a reference facet (a tuple of local vertices)."""
    A, _ = facet_parametrization(dim, local_facet)
    gram = A.T @ A
    return sqrt(np.linalg.det(gram)) / factorial(dim - 1)
