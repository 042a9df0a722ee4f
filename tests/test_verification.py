"""Trace duality, annihilation, inf-sup surveys and stability chains."""

import numpy as np
import pytest

from dpgfem.fortin import PolySample
from dpgfem.meshes import build_structured, refine_uniform
from dpgfem.polynomials import space_dimension
from dpgfem.verification import INFSUP_DCR_IDS, annihilation_check, \
    broken_stability_bound, duality_gap, duality_suite, infsup_survey, \
    verify_records
from dpgfem import verification
from dpgfem.formulations import MAXWELL_IDS

_SUITE = {}


def _duality_tables():
    if "tables" not in _SUITE:
        _SUITE["tables"] = duality_suite(p=1, qs=(3, 5, 7))
    return _SUITE["tables"]


def test_duality_gap_closes_at_highest_degree():
    for pairing, table in _duality_tables().items():
        assert table.shape == (5, 3)
        assert table[:, -1].max() < 0.05, pairing


def test_duality_gap_non_increasing_in_degree():
    for pairing, table in _duality_tables().items():
        assert np.diff(table, axis=1).max() <= 1e-12, pairing


def test_duality_gap_zero_trace():
    ncoef = space_dimension("h1", 2, 3)
    zero = PolySample(2, np.zeros(ncoef))
    assert duality_gap("grad/div", 3, zero) == 0.0


def test_duality_unknown_pairing():
    with pytest.raises(ValueError, match="pairing"):
        duality_gap("grad/curl", 3, None)


def _face_indicator(x):
    """1 on face 0 of the reference tetrahedron (x + y + z = 1), 0
    elsewhere: not a trace of any smooth field."""
    return (np.abs(x.sum(axis=1) - 1.0) < 1e-12).astype(float)


def test_unattainable_trace_is_rejected():
    with pytest.raises(RuntimeError, match="not attainable"):
        duality_gap("grad/div", 3, _face_indicator)


@pytest.mark.parametrize("fid,domain", [
    ("primal_poisson", "unit-square"),
    ("maxwell_primal_E", "unit-cube"),
])
def test_conforming_tests_annihilate_interface_terms(fid, domain):
    mesh = build_structured(domain, 1)
    res = annihilation_check(fid, mesh, p=1)
    assert res.conforming_max < 1e-12
    assert res.witness > 1e-3


def test_annihilation_needs_interface_unknowns(two_tri):
    with pytest.raises(ValueError, match="no interface"):
        annihilation_check("strong_dcr", two_tri, p=1)


_DCR_INFSUP = {
    "primal_dcr": 0.885316,
    "ultraweak_dcr": 0.618398,
    "mixed_dcr": 0.599844,
    "dual_mixed_dcr": 0.840566,
    "strong_dcr": 0.875997,
}

_MAXWELL_INFSUP = {
    "maxwell_primal_E": 0.707259,
    "maxwell_primal_H": 0.832366,
    "maxwell_ultraweak": 0.618547,
    "maxwell_mixed": 0.619388,
    "maxwell_dual_mixed": 0.566485,
    "maxwell_strong": 1.000000,
}


def test_infsup_survey_dcr(eight_tri):
    for rep in infsup_survey(INFSUP_DCR_IDS, eight_tri, p=1):
        assert rep.infsup > 0.0
        assert rep.infsup == pytest.approx(_DCR_INFSUP[rep.formulation],
                                           rel=1e-4)


def test_infsup_survey_maxwell(five_tet):
    for rep in infsup_survey(MAXWELL_IDS, five_tet, p=1):
        assert rep.infsup > 0.0
        assert rep.infsup == pytest.approx(_MAXWELL_INFSUP[rep.formulation],
                                           rel=1e-4)


def test_infsup_survey_rejects_large_mesh(eight_tri):
    mesh = eight_tri
    for _ in range(3):
        mesh = refine_uniform(mesh)
    with pytest.raises(ValueError, match="200"):
        infsup_survey(("primal_dcr",), mesh, p=1)


@pytest.mark.parametrize("n,c1,formula", [
    (1, 0.916067, 0.441056),
    (2, 0.885316, 0.431923),
])
def test_broken_stability_bound_holds(n, c1, formula):
    mesh = build_structured("unit-square", n)
    res = broken_stability_bound("primal_poisson", mesh, p=1)
    assert res.c1_discrete >= res.c1_formula - 1e-10
    assert res.c1_discrete == pytest.approx(c1, rel=1e-4)
    assert res.c1_formula == pytest.approx(formula, rel=1e-4)


def test_conforming_restriction_degenerates_to_field_constant(two_tri):
    """c0, the field form's inf-sup constant over the conforming test
    subspace, bounds the broken constant's formula from above."""
    res = broken_stability_bound("primal_poisson", two_tri, p=1)
    assert res.c0 == pytest.approx(0.967960, rel=1e-4)
    assert res.c1_formula < res.c0


def test_verify_records_shape_and_determinism():
    recs = verify_records(suites=("annihilation", "stability"))
    assert len(recs) == 6
    for r in recs:
        assert set(r) == {"suite", "case", "value", "tolerance", "pass"}
        assert isinstance(r["value"], float)
        assert r["pass"] is True
    again = verify_records(suites=("annihilation", "stability"))
    assert again == recs


# each relation with one value at its bound and one to either side
_HOLDS = {"<": (False, False, True), "<=": (True, False, True),
          ">": (False, True, False), ">=": (True, True, False),
          "==": (True, False, False)}


def test_suite_records_pass_follows_the_relation(monkeypatch):
    def fake(seed):
        for relation in _HOLDS:
            for value in (1.0, 1.5, 0.5):
                yield f"{relation}{value}", value, relation, 1.0
    monkeypatch.setitem(verification._SUITES, "fortin", fake)
    recs = verification._suite_records("fortin", 0)
    assert [r["pass"] for r in recs] == [ok for oks in _HOLDS.values()
                                         for ok in oks]
    assert {r["suite"] for r in recs} == {"fortin"}
    assert {r["tolerance"] for r in recs} == {1.0}


def test_stability_tolerance_is_the_bound_of_the_margin():
    recs = verify_records(suites=("stability",))
    assert [r["tolerance"] for r in recs] == [-1e-10, -1e-10]
    assert all(r["pass"] and r["value"] >= -1e-10 for r in recs)


def test_verify_records_unknown_suite():
    with pytest.raises(ValueError, match="unknown verification suite"):
        verify_records(suites=("fortin", "nope"))


@pytest.mark.parametrize("suites,message", [
    ((), "suites names no verification suite"),
    (("stability", "fortin", "stability"), "suites names 'stability' twice"),
], ids=["empty", "repeated"])
def test_verify_records_rejects_empty_or_repeated_suites(suites, message):
    with pytest.raises(ValueError, match=message):
        verify_records(suites=suites)
