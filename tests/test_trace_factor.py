"""The one trace operator, ``reference.trace_factor``, and its vocabulary.

Each kind is checked against an independent pointwise formula at random
values and unit normals, in 2D and 3D ('rotated' in 3D only).  Every place that names a trace
kind (the catalog's pairings, the interface spaces, the Fortin face
moments and the duality pairings) must name one of the four.
"""

import numpy as np
import pytest

from dpgfem import formulations, fortin, spaces, verification
from dpgfem.reference import trace_factor

KINDS = ("value", "normal", "tangential", "rotated")


def _sample(dim, npts=200, seed=0):
    rng = np.random.default_rng(seed + dim)
    n = rng.standard_normal((npts, dim))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    return n, rng.standard_normal((npts, dim))


def _apply(v, M):
    return np.einsum("pc,pcr->pr", v, M)


@pytest.mark.parametrize("dim", [2, 3])
def test_kinds_match_pointwise_formulas(dim):
    n, v = _sample(dim)
    vn = np.sum(v * n, axis=1)
    want = {"normal": vn[:, None], "tangential": v - vn[:, None] * n}
    if dim == 3:
        want["rotated"] = np.cross(n, v)
    for kind, w in want.items():
        got = _apply(v, trace_factor(kind, n))
        assert got.shape == w.shape
        np.testing.assert_allclose(got, w, rtol=0, atol=1e-14)
    u = v[:, :1]
    assert np.array_equal(_apply(u, trace_factor("value", n)), u)


@pytest.mark.parametrize("dim", [2, 3])
def test_tangential_is_an_orthogonal_projection(dim):
    n, v = _sample(dim, seed=1)
    P = trace_factor("tangential", n)
    np.testing.assert_allclose(P @ P, P, rtol=0, atol=1e-15)
    np.testing.assert_allclose(P, np.swapaxes(P, 1, 2), rtol=0, atol=0)
    t = _apply(v, P)
    np.testing.assert_allclose(np.sum(t * n, axis=1), 0.0, rtol=0,
                               atol=1e-15)


def test_rotated_is_the_tangential_part_turned():
    # |n x v| equals the length of the tangential part, and n x v is
    # orthogonal to n
    n, v = _sample(3, seed=2)
    r = _apply(v, trace_factor("rotated", n))
    t = _apply(v, trace_factor("tangential", n))
    np.testing.assert_allclose(np.linalg.norm(r, axis=1),
                               np.linalg.norm(t, axis=1), rtol=1e-14)
    np.testing.assert_allclose(np.sum(r * n, axis=1), 0.0, rtol=0,
                               atol=1e-15)


def test_one_normal_serves_a_stack():
    # one normal gives one matrix; a stack of normals a stack of them
    n, _ = _sample(3, npts=4, seed=3)
    for kind in KINDS:
        stack = trace_factor(kind, n)
        assert stack.shape[0] == 4
        for i in range(4):
            assert np.array_equal(trace_factor(kind, n[i]), stack[i])


def test_unknown_kind_is_rejected():
    with pytest.raises(ValueError, match="trace kind"):
        trace_factor("flux", np.array([0.0, 0.0, 1.0]))


def test_every_trace_kind_named_is_one_of_the_four():
    named = {}
    for fid in formulations.FORMULATION_IDS:
        form = formulations.make_formulation(fid, 1)
        for pr in form.pairings:
            named[f"{fid} pairing {pr.slot}"] = \
                formulations._TRACE_KINDS[pr.trace]
    for key, (kind, _) in spaces._INTERFACE_KINDS.items():
        named[f"interface {key}"] = kind
    for key, kind in fortin._FACE_MODE.items():
        named[f"Fortin {key}"] = kind
    for key, (ext, dual) in verification._MODES.items():
        named[f"duality {key} extension"] = ext
        named[f"duality {key} dual"] = dual
    assert {k: v for k, v in named.items() if v not in KINDS} == {}
    assert set(named.values()) == set(KINDS)
