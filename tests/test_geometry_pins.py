"""Characterization of the affine cell geometry: the rules of the Fortin
tetrahedron, and the classes of cells and the conforming dof maps that a
mesh's geometry decides.

Each array is pinned by a SHA-256 digest of its shape and bytes, as in
``test_mesh_characterization``, so a rewrite of where the cell maps,
normals, areas and classes are computed keeps every bit.
"""

import hashlib

import numpy as np
import pytest

from dpgfem.formulations import make_formulation
from dpgfem.fortin import SHAPE_FAMILY, TetQuadrature
from dpgfem.reference import conforming_basis
from dpgfem.spaces import conforming_map
from dpgfem.system import Discretization
from test_cell_classes import DCR, MESHES


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.shape, a.dtype.str)).encode() + a.tobytes())
    return h.hexdigest()[:16]


# -- the Fortin tetrahedron ----------------------------------------------

QUAD_CASES = [(name, lam, order) for name in sorted(SHAPE_FAMILY)
              for lam in (1e-2, 1.0, 10.0) for order in (6, 14)]

QUAD_PINS = {
    "J": "bba992f4db7411a0",
    "det": "dc01b0a39a666280",
    "Jinv": "c72ecbfda174645b",
    "h": "205846e2a25abc2b",
    "centroid": "179ee6d13062b8a3",
    "vol_ref": "d339e425b6e8a63a",
    "vol_points": "9c1a746999dc8a29",
    "vol_weights": "55edea4de1e65311",
    "face_params": "0490ca798c32bafd",
    "face_ref": "6a081a96ca5f0094",
    "face_points": "e316e3e7d33d1a6b",
    "face_weights": "cb74a8224df94e74",
    "face_normals": "e398aa0fa92a8ac1",
    "face_basis": "5a7d56f7ed6aba3d",
    "frame": "cd464abef0a74ea5",
    "edge_params": "757e73a26352c697",
    "edge_ref": "53c1d3a2dfede773",
    "edge_weights": "8a7514f0de9d7196",
    "edge_tangents": "a38d84a75353bdfa",
}

_QUADS = []


def _quads():
    if not _QUADS:
        _QUADS.extend(TetQuadrature(SHAPE_FAMILY[name] * lam, order)
                      for name, lam, order in QUAD_CASES)
    return _QUADS


@pytest.mark.parametrize("field", sorted(QUAD_PINS))
def test_tet_quadrature_arrays_are_pinned(field):
    arrays = [np.asarray(getattr(q, field), dtype=np.float64)
              for q in _quads()]
    assert _digest(arrays) == QUAD_PINS[field]


# -- classes of cells and conforming dof maps ----------------------------


def _shape_classes(mesh):
    return mesh.geometry.shape_classes


def _kernel_classes(mesh, fid, per_cell):
    params = dict(DCR)
    if per_cell:
        params["a"] = 1.0 + 0.25 * (np.arange(mesh.ncells) % 4)
    disc = Discretization(make_formulation(fid, 1, params=params), mesh)
    return disc._cell_classes()


MAP_SPACES = [("h1", 2), ("h1", 3), ("hdiv", 1), ("hdiv", 2)]

CLASS_PINS = {
    "jittered": ("cf81a4900a4d0bcd", "cf81a4900a4d0bcd",
                 "cf81a4900a4d0bcd"),
    "lshape": ("de5ea79d96d24cd1", "5349a1c34d161776",
               "62411d4cd487e776"),
    "square": ("ae588b1034ff9886", "21d7d4c126e4fa1d",
               "ae588b1034ff9886"),
}


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_cell_classes_are_pinned(mesh_name):
    mesh = MESHES[mesh_name]()
    got = (_digest(_shape_classes(mesh)),
           _digest(_kernel_classes(mesh, "primal_dcr", True)),
           _digest(_kernel_classes(mesh, "ultraweak_dcr", False)))
    assert got == CLASS_PINS[mesh_name]


MAP_PINS = {
    "jittered": "03505278f1b670e0",
    "lshape": "e020dac3bdfab012",
    "square": "03505278f1b670e0",
}


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
def test_conforming_maps_are_pinned(mesh_name):
    mesh = MESHES[mesh_name]()
    arrays = []
    for family, degree in MAP_SPACES:
        basis = conforming_basis(family, degree, mesh.dim)
        for skeleton in (False, True):
            m = conforming_map(mesh, basis, skeleton=skeleton)
            arrays += [np.array([m.ndofs]), m.cell_dofs, m.cell_factors,
                       m.boundary]
    assert _digest(arrays) == MAP_PINS[mesh_name]
