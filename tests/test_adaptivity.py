"""Dorfler marking and the adaptive refinement loop."""

import numpy as np
import pytest

from dpgfem.adaptivity import HISTORY_COLUMNS, AdaptiveHistory, \
    adaptive_solve, mark
from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import build_structured, refine_uniform
from dpgfem.system import Discretization


def test_mark_two_cell_example():
    assert mark(np.array([3.0, 4.0]), 0.8) == {0, 1}


def test_mark_theta_one_takes_positive_cells_only():
    assert mark(np.array([0.0, 2.0, 0.0, 3.0]), 1.0) == {1, 3}


def test_mark_small_theta_takes_single_largest_lowest_id():
    assert mark(np.array([1.0, 2.0, 2.0]), 1e-6) == {1}


def test_mark_all_zero_marks_nothing():
    assert mark(np.zeros(5), 0.5) == set()


@pytest.mark.parametrize("theta", [0.0, -0.3, 1.0000001])
def test_mark_rejects_bad_fraction(theta):
    with pytest.raises(ValueError, match="marking fraction"):
        mark(np.array([1.0]), theta)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_mark_rejects_non_finite_indicators(bad):
    with pytest.raises(ValueError, match="1 of 3 error indicators are not "
                       "finite"):
        mark(np.array([1.0, bad, 0.5]), 0.5)


@pytest.mark.parametrize("seed", range(5))
def test_mark_is_minimal_greedy_set(seed):
    rng = np.random.default_rng(seed)
    eta = rng.uniform(0.01, 1.0, size=40)
    theta = float(rng.uniform(0.2, 0.95))
    marked = mark(eta, theta)
    q = eta ** 2
    target = theta * theta * q.sum()
    desc = np.sort(q)[::-1]
    csum = np.cumsum(desc)
    k = len(marked)
    assert csum[k - 1] >= target - 1e-12 * q.sum()
    if k > 1:
        assert csum[k - 2] < target + 1e-12 * q.sum()
    # the marked cells are exactly the k largest indicators
    assert sorted((q[c] for c in marked), reverse=True) \
        == pytest.approx(desc[:k], rel=0, abs=0)


def test_history_requires_increasing_dofs():
    h = AdaptiveHistory()
    h.append(10, 1.0, np.nan, 2)
    h.append(14, 0.5, np.nan, 4)
    with pytest.raises(ValueError, match="strictly increase"):
        h.append(14, 0.4, np.nan, 6)
    assert len(h) == 2
    assert list(h.dofs) == [10, 14]
    assert h.rows()[0] == {"iteration": 0, "dofs": 10, "eta": 1.0,
                           "error_total_or_nan": h[0]["error_total_or_nan"],
                           "cells": 2}
    assert tuple(h.rows()[1]) == HISTORY_COLUMNS


def test_adaptive_solve_needs_stop_rule(lshape):
    form = make_formulation("primal_poisson", 1)
    case = manufactured_case("poisson_lshape_singular")
    with pytest.raises(ValueError, match="stopping rule"):
        adaptive_solve(form, lshape, case, 0.5)


@pytest.mark.parametrize("limits", [{"max_iterations": 0},
                                    {"max_dofs": 0},
                                    {"max_iterations": 3, "max_dofs": -5}])
def test_adaptive_solve_rejects_limits_below_one(lshape, limits):
    form = make_formulation("primal_poisson", 1)
    case = manufactured_case("poisson_lshape_singular")
    name = "max_dofs" if "max_dofs" in limits else "max_iterations"
    with pytest.raises(ValueError, match=f"{name} must be at least 1"):
        adaptive_solve(form, lshape, case, 0.5, **limits)


def test_adaptive_solve_single_iteration_at_dof_cap(lshape):
    form = make_formulation("primal_poisson", 1)
    case = manufactured_case("poisson_lshape_singular")
    history, state = adaptive_solve(form, lshape, case, 0.5, max_dofs=1)
    assert len(history) == 1
    assert state.mesh.ncells == lshape.ncells


def test_lshape_estimator_decreases(lshape):
    form = make_formulation("primal_poisson", 1)
    case = manufactured_case("poisson_lshape_singular")
    history, state = adaptive_solve(form, lshape, case, 0.5,
                                    max_iterations=10)
    etas = history.etas
    assert len(history) == 10
    assert np.all(np.diff(etas) < 0)
    assert etas[0] == pytest.approx(0.054044, rel=1e-3)
    assert etas[-1] == pytest.approx(0.017331, rel=1e-3)
    assert np.all(np.isnan([r["error_total_or_nan"]
                            for r in history.records]))
    assert state.mesh.ncells == history[-1]["cells"]


def _uniform_ladder(form, mesh, case, levels):
    out = []
    for _ in range(levels):
        disc = Discretization(form, mesh)
        A, f = disc.assemble(case)
        x = disc.solve(A, f)
        out.append((disc.ndof, disc.estimate(x, case).eta))
        mesh = refine_uniform(mesh)
    return out


def test_corner_load_drops_below_fifth_of_initial(lshape, corner_case):
    form = make_formulation("primal_poisson", 2)
    history, _ = adaptive_solve(form, lshape, corner_case, 0.5,
                                max_iterations=10)
    etas = history.etas
    assert history.dofs[0] == 79
    assert np.all(np.diff(etas) < 0)
    assert etas[-1] < 0.2 * etas[0]


@pytest.mark.parametrize("theta", [0.3, 0.5, 0.7])
def test_adaptive_beats_uniform_on_corner_load(lshape, corner_case, theta):
    form = make_formulation("primal_poisson", 2)
    history, _ = adaptive_solve(form, lshape, corner_case, theta,
                                max_iterations=60, max_dofs=900)
    ladder = _uniform_ladder(form, lshape, corner_case, 3)
    pairs = 0
    for udofs, ueta in ladder[1:]:
        for rec in history.records:
            if abs(rec["dofs"] - udofs) <= 0.1 * udofs:
                pairs += 1
                assert rec["eta"] < ueta
    assert pairs > 0


def test_smooth_case_adaptive_tracks_uniform(rng):
    mesh = build_structured("unit-square", 2)
    form = make_formulation("primal_poisson", 1)
    case = manufactured_case("poisson_sine_2d")
    history, _ = adaptive_solve(form, mesh, case, 0.5, max_iterations=60,
                                max_dofs=700)
    ladder = _uniform_ladder(form, mesh, case, 3)
    pairs = 0
    for udofs, ueta in ladder[1:]:
        for rec in history.records:
            if abs(rec["dofs"] - udofs) <= 0.15 * udofs:
                pairs += 1
                assert rec["eta"] < 2.0 * ueta
    assert pairs > 0
