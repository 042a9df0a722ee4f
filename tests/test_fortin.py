"""Moment interpolants on the reference tet: dimensions, residuals,
commuting identities and shape-robust norm bounds."""

import numpy as np
import pytest

from dpgfem.fortin import SHAPE_FAMILY, default_samples, fortin_bound_sweep, \
    fortin_build, fortin_commuting, fortin_moments
from oracles import perp_dimensions

_CACHE = {}


def _system(kind, p):
    key = (kind, p)
    if key not in _CACHE:
        _CACHE[key] = fortin_build(kind, p)
    return _CACHE[key]


@pytest.mark.parametrize("kind,p,bdim", [
    ("grad", 1, 13), ("curl", 1, 42), ("div", 1, 50),
    ("grad", 2, 28), ("curl", 2, 86), ("div", 2, 94),
])
def test_moment_system_square_with_expected_dimension(kind, p, bdim):
    sys_ = _system(kind, p)
    assert sys_.bdim == bdim
    assert sys_.M.shape == (bdim, bdim)


@pytest.mark.parametrize("p,p0_perp,p_perp", [(1, 17, 20), (2, 23, 26),
                                             (3, 29, 32)])
def test_surface_complement_dimensions(p, p0_perp, p_perp):
    assert perp_dimensions(p) == (p0_perp, p_perp)
    assert _system("curl", p).dims["P0_perp"] == p0_perp
    assert _system("div", p).dims["P_perp"] == p_perp


@pytest.mark.parametrize("kind", ["grad", "curl", "div"])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_moment_residuals_vanish(kind, p):
    res = fortin_moments(kind, p, system=_system(kind, p))
    assert res < 1e-9


@pytest.mark.parametrize("p", [1, 2, 3])
def test_commuting_identities(p):
    systems = {k: _system(k, p) for k in ("grad", "curl", "div")}
    assert fortin_commuting(p, systems=systems) < 1e-10


@pytest.mark.parametrize("lam", [1e-2, 10.0])
@pytest.mark.parametrize("shape", ["sheared", "aspect10"])
def test_commuting_identities_off_reference(shape, lam):
    assert fortin_commuting(1, vertices=SHAPE_FAMILY[shape] * lam) < 1e-9


@pytest.mark.parametrize("lam", [1e-5, 1e-4])
@pytest.mark.parametrize("shape", ["reference", "aspect10"])
@pytest.mark.parametrize("kind", ["grad", "curl", "div"])
def test_small_tetrahedra_keep_the_unit_dimensions(kind, shape, lam):
    # the constraint and moment systems are equilibrated row by row, so
    # their ranks do not depend on the size of the tetrahedron
    sys_ = fortin_build(kind, 1, vertices=SHAPE_FAMILY[shape] * lam)
    assert sys_.dims == _system(kind, 1).dims
    assert fortin_moments(kind, 1, system=sys_) < 1e-9


@pytest.mark.parametrize("kind", ["grad", "curl", "div"])
def test_interpolant_is_idempotent(kind):
    sys_ = _system(kind, 1)
    u = default_samples(kind, 1, seed=7, count=1)[0]
    first = sys_.apply(u)
    second = sys_.apply(first.values)
    pts = sys_.quad.vol_points
    a, b = first.values(pts), second.values(pts)
    assert np.max(np.abs(a - b)) < 1e-9 * max(np.max(np.abs(a)), 1e-30)


def test_weighted_bound_is_dilation_invariant():
    records = fortin_bound_sweep(
        1, kinds=("grad",), lambdas=(0.1, 1.0, 10.0),
        shapes={"reference": SHAPE_FAMILY["reference"]})
    cw = np.array([r["weighted"] for r in records])
    assert cw.max() / cw.min() - 1.0 < 1e-8
    # the unweighted constant is not dilation invariant
    cf = np.array([r["full"] for r in records])
    assert cf.max() / cf.min() - 1.0 > 1e-2


@pytest.mark.parametrize("kind", ["grad", "curl", "div"])
def test_reference_shape_beats_flat_tet(kind):
    records = fortin_bound_sweep(
        1, kinds=(kind,), lambdas=(1.0,),
        shapes={k: SHAPE_FAMILY[k] for k in ("reference", "aspect10")})
    by_shape = {r["shape"]: r["weighted"] for r in records}
    assert by_shape["reference"] < by_shape["aspect10"]
