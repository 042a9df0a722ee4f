"""Characterization of the mesh layer: construction, red refinement and
marked bisection must reproduce these meshes exactly.

Each case pins every array a mesh carries by a SHA-256 digest of its
shape and bytes, so a rewrite of the mesh layer keeps the vertex, cell
and facet numbering as well as the geometry and the tags.
"""

import hashlib

import numpy as np
import pytest

from dpgfem.meshes import build_structured, refine_marked, refine_uniform

FIELDS = ("vertices", "cells", "facets", "facet_cells", "facet_local",
          "parents", "boundary_tags")


def _digest(mesh, name):
    value = getattr(mesh, name)
    if name == "boundary_tags":
        value = np.array(sorted(value.items()), dtype=np.int64).reshape(-1, 2)
    dtype = np.float64 if name == "vertices" else np.int64
    value = np.ascontiguousarray(value, dtype=dtype)
    return hashlib.sha256(str(value.shape).encode()
                          + value.tobytes()).hexdigest()[:16]


def _uniform(domain, n, levels):
    mesh = build_structured(domain, n)
    for _ in range(levels):
        mesh = refine_uniform(mesh)
    return mesh


def _marked_chain(domain, n, steps, seed, fraction):
    """Bisect a random share of the cells, ``steps`` times in a row."""
    rng = np.random.default_rng(seed)
    mesh = build_structured(domain, n)
    for _ in range(steps):
        k = max(1, int(fraction * mesh.ncells))
        marked = rng.choice(mesh.ncells, size=k, replace=False)
        mesh = refine_marked(mesh, marked.tolist())
    return mesh


CASES = {
    "square-0": (lambda: _uniform("unit-square", 2, 0), 8, (
        "425c55016027c432", "b879aca43f3fdb69", "7d6cffe212f63969",
        "fbddf74a845277e3", "d3f45a180343ec36", "525537557e4235f9",
        "6dc5d5683fe3e56d")),
    "square-1": (lambda: _uniform("unit-square", 2, 1), 32, (
        "71da17d2afeae43d", "0a6e63553e9f3c96", "2c6cb4e919132d80",
        "fe0d0e9d123cb745", "bdb8b4ac64332e70", "26a8654b1dccb6dc",
        "49784878ddb74c56")),
    "square-2": (lambda: _uniform("unit-square", 2, 2), 128, (
        "c167eae44e204f10", "899477eb24af95de", "36ae87b48a1d9f1e",
        "c0275d00ca4c095c", "7428890b4d964d1c", "3f7bc42edf37efa7",
        "8e6500ba139e831b")),
    "lshape-0": (lambda: _uniform("l-shape", 2, 0), 6, (
        "576788e0fb54033b", "0db00d209e9bdf94", "73b70ab773bcf17e",
        "e06461193afccd44", "64da9dcdb41ab308", "0b1a85b961a2eeff",
        "e83c4e927646ac82")),
    "lshape-1": (lambda: _uniform("l-shape", 2, 1), 24, (
        "d1d4057c1dd64d7c", "754804f83ac07264", "f6dbdaa59172498a",
        "43fb4054c84d5a14", "0c1069dee3ebb607", "3e2f45cf4bece0f2",
        "730c1fbfc0e56258")),
    "lshape-2": (lambda: _uniform("l-shape", 2, 2), 96, (
        "2a417bcaf3aa1aa1", "6f5c3001b23d0353", "359754dfb2e3ba89",
        "c1394efbd35934e8", "c06812c05c1394e1", "15930f9a35a2fd89",
        "ef9b75932cd22b7d")),
    "cube-0": (lambda: _uniform("unit-cube", 1, 0), 5, (
        "56809c91136d8fd7", "61040069ff2a4f9d", "59c393bc367254c5",
        "d2e32f1d6488cd80", "205979dad19adfc3", "c39ceacfbc995f06",
        "a440783d13581b8c")),
    "cube-1": (lambda: _uniform("unit-cube", 1, 1), 40, (
        "c470c63981f2606d", "703b5862cd34f29d", "057788b73d03bd4e",
        "e70b97ecf863dc51", "8f3fd808a84e6aab", "ff8987b39100f56b",
        "8c5dbb5237d104df")),
    "cube-2": (lambda: _uniform("unit-cube", 1, 2), 320, (
        "c462e4f20186e67e", "7147aa8f1ede22d3", "cf1ad39d95081677",
        "69bb7a1a7ea181b9", "1105bcb6b07b8789", "1f69e0f537c61acc",
        "47134663ef9f6dca")),
    # longest-edge bisection, six marked steps from the coarse L-shape
    "lshape-marked": (lambda: _marked_chain("l-shape", 4, 6, 7, 0.3), 380, (
        "6a5ae2664f8f44f1", "1dfc4ee33ea516ae", "df0ef7bdf9b1a7dd",
        "3b5a9d9e848071fd", "a76992477ab6c763", "73848da454b0ddc9",
        "48ef89b37c809fb4")),
    "square-marked": (lambda: _marked_chain("unit-square", 3, 5, 3, 0.5), 361, (
        "bbe1d08dc23343cd", "5628f97b8797567c", "1a884504357456de",
        "ac2c8b1636f11a68", "74a9bde91b99ce6d", "44a89628015cdf93",
        "32b349107455b85b")),
    # longest-edge bisection, five marked steps on the cube
    "cube-marked": (lambda: _marked_chain("unit-cube", 2, 5, 11, 0.2), 2027, (
        "cf86d5d54d92de1f", "50d12293563c8cb6", "52ad4d05fd2ebec6",
        "60e6a9dc38e818d2", "64a7b030d298954d", "4b0d29f06e9dfd3f",
        "b13ed66913aa1fa3")),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_mesh_is_reproduced_exactly(case):
    build, ncells, digests = CASES[case]
    mesh = build()
    assert mesh.ncells == ncells
    got = tuple(_digest(mesh, name) for name in FIELDS)
    assert dict(zip(FIELDS, got)) == dict(zip(FIELDS, digests))
