"""Acceptance gate: ten end-to-end checks at fixed tolerances.

Each test prints a single PASS/FAIL line (visible with pytest -s) and
enforces its own wall-clock budget.
"""

import time

import numpy as np
import pytest

from dpgfem.adaptivity import adaptive_solve
from dpgfem.formulations import MAXWELL_IDS, make_formulation, \
    manufactured_case
from dpgfem.fortin import default_samples, fortin_build, fortin_commuting, \
    fortin_moments
from dpgfem.meshes import build_structured, refine_uniform
from dpgfem.system import Discretization
from dpgfem.verification import INFSUP_DCR_IDS, annihilation_check, \
    broken_stability_bound, duality_suite, infsup_survey
from oracles import perp_dimensions, pg_assemble


class _Gate:
    def __init__(self, num, label, budget):
        self.num = num
        self.label = label
        self.budget = budget
        self.t0 = time.perf_counter()

    def finish(self, ok, detail):
        elapsed = time.perf_counter() - self.t0
        tok = "PASS" if ok and elapsed < self.budget else "FAIL"
        print(f"acceptance {self.num:02d} {self.label}: {tok} "
              f"({detail}; {elapsed:.1f}s of {self.budget:.0f}s)")
        assert ok, f"{self.label}: {detail}"
        assert elapsed < self.budget, \
            f"{self.label} exceeded budget ({elapsed:.1f}s)"


def _solve_ladder(form, mesh, case, levels):
    """Uniform refinement sweep returning per-level solution data."""
    out = []
    for _ in range(levels):
        disc = Discretization(form, mesh)
        A, f = disc.assemble(case)
        x = disc.solve(A, f)
        est = disc.estimate(x, case)
        errors = disc.measure_error(x, case) if case.has_exact else None
        out.append({"h": mesh.mesh_size, "disc": disc, "x": x,
                    "eta": est.eta, "errors": errors})
        mesh = refine_uniform(mesh)
    return out


def _last_two_rate(hs, errs):
    return np.log(errs[-2] / errs[-1]) / np.log(hs[-2] / hs[-1])


def test_criterion_01_fortin_operators():
    gate = _Gate(1, "fortin moments and commuting diagram", 60.0)
    worst = 0.0
    detail = []
    ok = True
    for p in (1, 2):
        systems = {k: fortin_build(k, p) for k in ("grad", "curl", "div")}
        for kind in ("grad", "curl", "div"):
            samples = default_samples(kind, p, seed=0, count=20)
            worst = max(worst, fortin_moments(kind, p, samples=samples,
                                              system=systems[kind]))
        comm = fortin_commuting(p, systems=systems, samples={
            "scalar": default_samples("grad", p, seed=1, count=10),
            "vector": default_samples("curl", p, seed=2, count=10)})
        worst = max(worst, comm)
        M = systems["curl"].M
        square = M.shape == (systems["curl"].bdim,) * 2
        invertible = np.linalg.matrix_rank(M) == M.shape[0]
        dim_ok = perp_dimensions(p)[0] == 6 * p + 11
        ok = ok and square and invertible and dim_ok and worst < 1e-9
        detail.append(f"p={p} worst {worst:.2e} P0_perp "
                      f"{perp_dimensions(p)[0]}")
    gate.finish(ok, ", ".join(detail))


def test_criterion_02_trace_duality():
    gate = _Gate(2, "trace duality gap sweep", 60.0)
    p = 1
    tables = duality_suite(p=p, count=5, qs=(p + 2, p + 4, p + 6))
    final = max(t[:, -1].max() for t in tables.values())
    rise = max(np.diff(t, axis=1).max() for t in tables.values())
    ok = final < 0.05 and rise <= 1e-12
    gate.finish(ok, f"final gap {final:.2e}, worst rise {rise:.2e}")


def test_criterion_03_interface_annihilation():
    gate = _Gate(3, "conforming tests annihilate interfaces", 60.0)
    checks = [("primal_poisson", "unit-square"),
              ("maxwell_primal_E", "unit-cube")]
    conf, wit = 0.0, np.inf
    for fid, domain in checks:
        res = annihilation_check(fid, build_structured(domain, 1), p=1)
        conf = max(conf, res.conforming_max)
        wit = min(wit, res.witness)
    ok = conf < 1e-12 and wit > 1e-3
    gate.finish(ok, f"conforming max {conf:.2e}, witness min {wit:.2e}")


def test_criterion_04_broken_stability_chain():
    gate = _Gate(4, "broken stability bound", 60.0)
    margins = []
    for n in (1, 2):
        mesh = build_structured("unit-square", n)
        res = broken_stability_bound("primal_poisson", mesh, p=1)
        margins.append(res.c1_discrete - res.c1_formula)
    ok = all(m >= -1e-10 for m in margins)
    gate.finish(ok, "margins " + ", ".join(f"{m:.3f}" for m in margins))


def test_criterion_05_primal_poisson_convergence():
    gate = _Gate(5, "primal Poisson convergence and effectivity", 120.0)
    case = manufactured_case("poisson_sine_2d")
    ok = True
    detail = []
    for p in (1, 2):
        form = make_formulation("primal_poisson", p)
        levels = _solve_ladder(form, build_structured("unit-square", 2),
                               case, 4)
        hs = [lv["h"] for lv in levels]
        eu = [lv["errors"]["u"]["natural"] for lv in levels]
        etot = [lv["errors"]["total"] for lv in levels]
        etas = [lv["eta"] for lv in levels]
        rate = _last_two_rate(hs, eu)
        ratios = np.array(etas) / np.array(etot)
        drift_ok = ratios.max() / ratios.min() < 2.0
        bound_ok = all(lv["eta"] <= 1.05 * lv["disc"].opnorm()
                       * lv["errors"]["total"] for lv in levels)
        ok = ok and rate >= (p + 1) - 0.2 and drift_ok and bound_ok
        detail.append(f"p={p} rate {rate:.2f} drift "
                      f"{ratios.max() / ratios.min():.2f}")
    gate.finish(ok, ", ".join(detail))


def test_criterion_06_ultraweak_dcr_convergence():
    gate = _Gate(6, "ultraweak diffusion-convection-reaction", 120.0)
    form = make_formulation("ultraweak_dcr", 1)
    case = manufactured_case("dcr_sine_2d")
    levels = _solve_ladder(form, build_structured("unit-square", 1), case, 4)
    hs = [lv["h"] for lv in levels]
    rates = {}
    for slot in ("sigma", "u"):
        errs = [lv["errors"][slot]["l2"] for lv in levels]
        rates[slot] = _last_two_rate(hs, errs)
    ok = all(r >= 1 - 0.2 for r in rates.values())
    gate.finish(ok, ", ".join(f"{s} rate {r:.2f}" for s, r in rates.items()))


def test_criterion_07_maxwell_primal_convergence():
    gate = _Gate(7, "Maxwell primal E economy convergence", 600.0)
    form = make_formulation("maxwell_primal_E", 1, delta=2, mode="economy")
    case = manufactured_case("maxwell_sine_3d")
    levels = _solve_ladder(form, build_structured("unit-cube", 1), case, 3)
    cells = [lv["disc"].mesh.ncells for lv in levels]
    hs = [lv["h"] for lv in levels]
    errs = [lv["errors"]["E"]["natural"] for lv in levels]
    rate = _last_two_rate(hs, errs)
    ok = cells == [5, 40, 320] and np.isfinite(errs[0]) and rate >= 0.7
    gate.finish(ok, f"cells {cells}, H(curl) rate {rate:.2f}")


def test_criterion_08_infsup_survey():
    gate = _Gate(8, "inf-sup survey over all formulations", 300.0)
    reports = infsup_survey(INFSUP_DCR_IDS, build_structured("unit-square", 2), p=1)
    reports += infsup_survey(MAXWELL_IDS, build_structured("unit-cube", 1),
                             p=1)
    vals = {r.formulation: r.infsup for r in reports}
    ok = len(vals) == 11 and all(v > 0.0 for v in vals.values())
    gate.finish(ok, f"min inf-sup {min(vals.values()):.3f} over "
                    f"{len(vals)} formulations")


def test_criterion_09_adaptive_corner_resolution(corner_case):
    gate = _Gate(9, "adaptive refinement on a corner-dominated load", 180.0)
    form = make_formulation("primal_poisson", 2)
    mesh0 = build_structured("l-shape", 2)
    history, _ = adaptive_solve(form, mesh0, corner_case, 0.5,
                                max_iterations=10)
    etas = history.etas
    decreasing = bool(np.all(np.diff(etas) < 0))
    final_ok = etas[-1] < 0.2 * etas[0]
    ladder = _solve_ladder(form, mesh0, corner_case, 4)
    pairs, beats = 0, True
    for lv in ladder[1:]:
        udofs, ueta = lv["disc"].ndof, lv["eta"]
        for rec in history.records:
            if abs(rec["dofs"] - udofs) <= 0.1 * udofs:
                pairs += 1
                beats = beats and rec["eta"] < ueta
    ok = decreasing and final_ok and pairs > 0 and beats
    gate.finish(ok, f"eta {etas[0]:.3f} -> {etas[-1]:.3f} "
                    f"({etas[-1] / etas[0]:.2f}x), {pairs} matched pairs")


def test_criterion_10_condensation_equivalence():
    gate = _Gate(10, "normal equations match explicit PG solve", 60.0)
    mesh = build_structured("unit-square", 1)
    disc = Discretization(make_formulation("primal_poisson", 1), mesh)
    case = manufactured_case("poisson_sine_2d")
    A, f = disc.assemble(case)
    x = disc.solve(A, f)
    Apg, fpg = pg_assemble(disc, case)
    xpg = disc.solve(Apg, fpg)
    gap = float(np.max(np.abs(x - xpg)))
    gate.finish(gap < 1e-10, f"max coefficient gap {gap:.2e}")
