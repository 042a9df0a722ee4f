"""Formulation catalog structure and manufactured case consistency."""

import numpy as np
import pytest

from dpgfem.formulations import (
    DCR_IDS,
    MAXWELL_IDS,
    exact_names,
    make_formulation,
    manufactured_case,
)

ALL_IDS = list(DCR_IDS) + list(MAXWELL_IDS)


def test_catalog_covers_twelve_formulations():
    assert len(ALL_IDS) == 12
    for fid in ALL_IDS:
        form = make_formulation(fid, 1)
        assert form.trial_slots, fid
        assert form.test_slots, fid


@pytest.mark.parametrize("fid", MAXWELL_IDS)
def test_maxwell_is_complex_and_3d(fid):
    form = make_formulation(fid, 1)
    assert form.dim == 3
    assert np.dtype(form.dtype) == np.complex128


@pytest.mark.parametrize("fid", DCR_IDS)
def test_diffusion_is_real(fid):
    form = make_formulation(fid, 1)
    assert np.dtype(form.dtype) == np.float64


@pytest.mark.parametrize("mode", ["guaranteed", "economy"])
@pytest.mark.parametrize("fid", ALL_IDS)
def test_exact_names_exist_in_the_matching_cases(fid, mode):
    """Every exact field that measure_error reads, the value of each
    field slot and the family derivative of each conforming one, is a
    field of the manufactured cases of the formulation's problem."""
    form = make_formulation(fid, 1, delta=2 if mode == "economy" else 3,
                            mode=mode)
    cases = (["maxwell_sine_3d"] if fid in MAXWELL_IDS
             else ["poisson_sine_2d", "dcr_sine_2d"])
    for s in form.trial_slots:
        value, deriv = exact_names(s)
        read = [value, deriv] if s.continuity == "conforming" else [value]
        for name in cases:
            assert set(read) <= set(manufactured_case(name).fields), \
                (s.name, name)


def test_primal_poisson_catalog_dimensions():
    """Per-cell counts in 2D: quadratic trial, a flux in the quadratic
    H(div) skeleton (linear normal traces), quartic broken test."""
    form = make_formulation("primal_poisson", 1, delta=3)
    u = form.trial_slots[0]
    assert (u.family, u.degree, u.continuity, u.zero_boundary) == \
        ("h1", 2, "conforming", True)
    sig = form.interface_slots[0]
    assert (sig.family, sig.degree, sig.continuity) == \
        ("hdiv", 2, "skeleton")
    assert not sig.zero_boundary
    v = form.test_slots[0]
    assert v.degree == 4  # 15 functions per triangle


def test_ultraweak_trial_is_broken_l2():
    form = make_formulation("ultraweak_dcr", 1)
    fams = [(s.name, s.family, s.continuity) for s in form.trial_slots]
    assert fams == [("sigma", "vec", "broken"), ("u", "l2", "broken")]
    uhat, sighat = form.interface_slots
    assert uhat.zero_boundary and not sighat.zero_boundary


@pytest.mark.parametrize("fid", ["strong_dcr", "maxwell_strong"])
def test_strong_forms_have_no_interface(fid):
    assert len(make_formulation(fid, 1).interface_slots) == 0


def test_boundary_rules_follow_the_imposed_field():
    fe = make_formulation("maxwell_primal_E", 1)
    assert fe.trial_slots[0].zero_boundary
    assert not fe.interface_slots[0].zero_boundary
    fh = make_formulation("maxwell_primal_H", 1)
    assert not fh.trial_slots[0].zero_boundary
    assert fh.interface_slots[0].zero_boundary


def test_economy_mode_switches_families_and_enrichment():
    econ = make_formulation("maxwell_primal_E", 1, delta=2, mode="economy")
    assert econ.trial_slots[0].family == "hcurl"
    assert econ.trial_slots[0].degree == 1
    assert econ.interface_slots[0].family == "hcurl"
    assert econ.test_slots[0].degree == 3
    guar = make_formulation("maxwell_primal_E", 1)
    assert guar.trial_slots[0].family == "vec"
    assert guar.test_slots[0].degree == 4


@pytest.mark.parametrize("fid", MAXWELL_IDS)
def test_guaranteed_maxwell_needs_delta_three(fid):
    """The Maxwell Fortin operators map into degree p + 3, so guaranteed
    mode rejects delta 2, where three of the forms are singular; economy
    mode keeps it."""
    with pytest.raises(ValueError, match=rf"'{fid}' in guaranteed mode "
                       r"needs delta >= 3, got 2"):
        make_formulation(fid, 1, delta=2)
    assert make_formulation(fid, 1, delta=2, mode="economy").delta == 2
    assert make_formulation(fid, 1, delta=3).delta == 3


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        make_formulation("nope", 1)
    with pytest.raises(ValueError):
        make_formulation("primal_poisson", 0)
    with pytest.raises(ValueError):
        make_formulation("maxwell_primal_E", 1, params={"omega": -1.0})
    with pytest.raises(ValueError):
        manufactured_case("unknown_case")
    with pytest.raises(ValueError, match="'gama'"):
        make_formulation("ultraweak_dcr", 1, params={"gama": 0.5})
    with pytest.raises(ValueError, match="'gamma'"):
        make_formulation("maxwell_primal_E", 1, params={"gamma": 0.5})
    with pytest.raises(ValueError, match="'beta'"):
        make_formulation("primal_dcr", 1, params={"beta": [0.3, -0.2, 0.1]})
    # complex, non-finite and non-numeric coefficients, constant or per
    # cell
    bad = [("a", 1.0 + 0.5j), ("a", np.array([1.0, 2.0 + 1e-3j])),
           ("a", np.nan), ("gamma", np.array([0.5, np.inf])),
           ("beta", np.array([0.3, 0.2j])), ("beta", [0.3, np.nan]),
           ("eps", 2.0 + 0.1j), ("omega", np.inf), ("a", "1.0")]
    for key, value in bad:
        fid = "maxwell_primal_E" if key in ("eps", "omega") else "primal_dcr"
        with pytest.raises(ValueError, match=repr(key)):
            make_formulation(fid, 1, params={key: value})
    # degrees that are not Python or numpy integers, or are bools
    for key, value in [("p", 1.5), ("p", "2"), ("p", True),
                       ("delta", 2.0), ("delta", True)]:
        with pytest.raises(ValueError,
                           match=f"{key} must be an integer, got {value!r}"):
            make_formulation("primal_poisson", **{"p": 1, key: value})
    form = make_formulation("primal_poisson", np.int64(2), np.int64(3))
    assert (form.p, form.delta) == (2, 3)


def test_poisson_sine_load(rng):
    case = manufactured_case("poisson_sine_2d")
    pts = rng.random((40, 2))
    u = case.fields["u"](pts)
    f = case.fields["f2"](pts)
    expected = 2 * np.pi ** 2 * np.sin(np.pi * pts[:, 0]) \
        * np.sin(np.pi * pts[:, 1])
    assert np.allclose(np.ravel(f), expected, atol=1e-13)
    assert np.allclose(np.ravel(u), expected / (2 * np.pi ** 2), atol=1e-13)


def test_maxwell_sine_first_component_only(rng):
    case = manufactured_case("maxwell_sine_3d")
    pts = rng.random((20, 3))
    E = case.fields["E"](pts)
    s = np.sin(np.pi * pts)
    assert np.allclose(E[:, 0], s[:, 0] * s[:, 1] * s[:, 2], atol=1e-13)
    assert np.allclose(E[:, 1:], 0.0, atol=1e-14)
    # the current must close the first Maxwell equation
    J = case.fields["J"](pts)
    curlH = case.fields["curl_H"](pts)
    om, eps = case.params["omega"], case.params["eps"]
    assert np.allclose(J, 1j * om * eps * E + curlH, atol=1e-12)


def test_maxwell_fields_satisfy_faraday(rng):
    """H is defined through curl E, checked by finite differences."""
    case = manufactured_case("maxwell_sine_3d")
    pts = 0.1 + 0.8 * rng.random((10, 3))
    h = 1e-6
    curlE_fd = np.zeros((len(pts), 3), dtype=complex)
    for i, (a, b) in enumerate([(1, 2), (2, 0), (0, 1)]):
        for sgn, (da, db) in ((1, (a, b)), (-1, (b, a))):
            ph = pts.copy()
            ph[:, da] += h
            mh = pts.copy()
            mh[:, da] -= h
            diff = (case.fields["E"](ph)[:, db] - case.fields["E"](mh)[:, db]) \
                / (2 * h)
            curlE_fd[:, i] += sgn * diff
    om, mu = case.params["omega"], case.params["mu"]
    H = case.fields["H"](pts)
    assert np.allclose(curlE_fd, 1j * om * mu * H, atol=1e-5)


def test_lshape_case_is_estimator_only():
    case = manufactured_case("poisson_lshape_singular")
    assert not case.has_exact
    pts = np.array([[0.2, 0.3], [0.7, 0.1]])
    assert np.allclose(case.fields["f2"](pts), 1.0)
