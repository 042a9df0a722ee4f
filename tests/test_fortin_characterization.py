"""Characterization of the Fortin interpolants and the duality gaps.

The pinned values were recorded with the monomial-span implementation
of the interpolants and must not move when the polynomial spans are
rebuilt: the bound-sweep constants, the dimensions of the constrained
spaces, the interpolant of one seeded sample at the volume quadrature
points (``data/fortin_characterization.npz``, keys ``<kind>-<shape>``)
and the duality gap tables (keys ``duality-<pairing>``).
"""

from pathlib import Path

import numpy as np
import pytest

from dpgfem.fortin import SHAPE_FAMILY, default_samples, fortin_bound_sweep, \
    fortin_build
from dpgfem.verification import duality_suite

_DATA = np.load(Path(__file__).parent / "data" / "fortin_characterization.npz")

# (weighted, full) constants of fortin_bound_sweep(1) at lambda = 1
_SWEEP = {
    ("grad", "reference"): (5.678874940289333, 5.615203532180824),
    ("grad", "aspect10"): (20.600636948397707, 20.359149978047476),
    ("curl", "reference"): (5.774847858367962, 5.8032701547252765),
    ("curl", "aspect10"): (20.8825017488275, 20.912123217370937),
    ("div", "reference"): (2.902774830651749, 2.903863173449746),
    ("div", "aspect10"): (9.41127544725064, 9.41147914852615),
}

_DIMS = {
    "grad": (13, {"B": 13}),
    "curl": (42, {"P0_perp": 17, "B": 42}),
    "div": (50, {"P_perp": 20, "B": 50}),
}


@pytest.mark.parametrize("kind", ["grad", "curl", "div"])
def test_bound_sweep_constants(kind):
    records = fortin_bound_sweep(
        1, kinds=(kind,), lambdas=(1.0,),
        shapes={k: SHAPE_FAMILY[k] for k in ("reference", "aspect10")})
    assert len(records) == 2
    for r in records:
        weighted, full = _SWEEP[(kind, r["shape"])]
        assert r["weighted"] == pytest.approx(weighted, rel=1e-10)
        assert r["full"] == pytest.approx(full, rel=1e-10)


@pytest.mark.parametrize("shape,lam", [("sheared", 1e-2), ("aspect10", 10.0)])
@pytest.mark.parametrize("kind", ["grad", "curl", "div"])
def test_interpolant_of_seeded_sample(kind, shape, lam):
    sys_ = fortin_build(kind, 1, vertices=SHAPE_FAMILY[shape] * lam)
    bdim, dims = _DIMS[kind]
    assert sys_.bdim == bdim
    assert sys_.dims == dims
    u = default_samples(kind, 1, seed=7, count=1)[0]
    vals = sys_.apply(u).values(sys_.quad.vol_points)
    ref = _DATA[f"{kind}-{shape}"]
    np.testing.assert_allclose(vals, ref, rtol=1e-10,
                               atol=1e-10 * np.abs(ref).max())


def test_duality_tables():
    tables = duality_suite(p=1, qs=(3, 5, 7))
    assert list(tables) == ["grad/div", "div/grad", "curlT/curlD",
                            "curlD/curlT"]
    for pairing, table in tables.items():
        np.testing.assert_allclose(table, _DATA[f"duality-{pairing}"],
                                   rtol=0.0, atol=1e-12)
