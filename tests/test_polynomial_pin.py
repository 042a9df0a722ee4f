"""Pinned polynomial arrays: generators, modal bases and Fortin samples.

Every table the library builds starts from the exponents and the term
coefficients of the generators of a family and of their family
derivatives.  ``data/polynomial_pin.npz`` holds, for 98 (family,
degree, dim) keys, those arrays, the modal basis values and derivatives
at fixed points, and the value and derivative tables of seeded
``PolySample`` inputs of degrees 1 to 5.  They are compared with
``np.array_equal``: a change of the polynomial representation must not
move any of them.

Regenerate (only when a change is meant to move them) with

    PYTHONPATH=src python tests/test_polynomial_pin.py
"""

from pathlib import Path

import numpy as np
import pytest

from dpgfem.fortin import PolySample
from dpgfem.polynomials import space_dimension
from dpgfem.reference import modal_basis

_PATH = Path(__file__).parent / "data" / "polynomial_pin.npz"

KEYS = ([(family, degree, dim) for family in ("h1", "l2") for dim in (1, 2, 3)
         for degree in range(9)]
        + [(family, degree, dim) for family in ("hdiv", "hcurl")
           for dim in (2, 3) for degree in range(1, 9)]
        + [("vec", degree, dim) for dim in (2, 3) for degree in range(6)])

SAMPLE_DEGREES = (1, 2, 3, 4, 5)


def _points(dim):
    rng = np.random.default_rng(11 + dim)
    return rng.uniform(-0.25, 1.0, (4, dim))


def _generators(basis):
    """(exponents, coefficients) of the value and derivative generators."""
    return [(c.exponents, c.coeffs) for c in (basis._gen_values, basis._folded["der"][0])]


def _key_arrays(family, degree, dim):
    basis = modal_basis(family, degree, dim)
    pts = _points(dim)
    out = {"values": basis.values(pts), "derivs": basis.derivs(pts)}
    for kind, (exps, coeffs) in zip(("val", "der"), _generators(basis)):
        out[f"{kind}-exponents"] = exps
        out[f"{kind}-coeffs"] = coeffs
    return out


def _sample_arrays(degree):
    rng = np.random.default_rng(100 + degree)
    ncoef = space_dimension("h1", degree, 3)
    scalar = PolySample(degree, rng.standard_normal(ncoef))
    vector = PolySample(degree, rng.standard_normal((ncoef, 3)))
    pts = _points(3)
    return {"scalar-value": scalar(pts), "scalar-grad": scalar.grad()(pts),
            "vector-value": vector(pts), "vector-curl": vector.curl()(pts),
            "vector-div": vector.div()(pts)}


def _record():
    data = {}
    for key in KEYS:
        for name, arr in _key_arrays(*key).items():
            data["-".join(map(str, key)) + "-" + name] = arr
    for degree in SAMPLE_DEGREES:
        for name, arr in _sample_arrays(degree).items():
            data[f"sample-{degree}-{name}"] = arr
    np.savez_compressed(_PATH, **data)


@pytest.fixture(scope="module")
def pinned():
    with np.load(_PATH) as data:
        return dict(data)


def test_grid_has_98_keys():
    assert len(KEYS) == len(set(KEYS)) == 98


@pytest.mark.parametrize("family,degree,dim", KEYS)
def test_generators_and_modal_basis_are_pinned(family, degree, dim, pinned):
    for name, arr in _key_arrays(family, degree, dim).items():
        ref = pinned[f"{family}-{degree}-{dim}-{name}"]
        assert arr.shape == ref.shape, name
        assert np.array_equal(arr, ref), name


@pytest.mark.parametrize("degree", SAMPLE_DEGREES)
def test_poly_samples_are_pinned(degree, pinned):
    for name, arr in _sample_arrays(degree).items():
        ref = pinned[f"sample-{degree}-{name}"]
        assert arr.shape == ref.shape, name
        assert np.array_equal(arr, ref), name


if __name__ == "__main__":
    _record()
