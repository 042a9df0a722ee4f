"""The four benchmark workloads and the properties their outputs must have.

Each workload runs as one round: it drives dpgfem through the calls a
user makes (``dpgfem.cli.main`` on a config file where a config can
express the run, the library otherwise), writes its reports into the
round's output directory, and checks them against properties the DPG
method must have.  Library calls go through module attributes at call
time so that a tracer installed after import sees them.

One operation is one study level, one adaptive iteration, one
verification record or one workload-level check.
"""

import csv
import json
import math
from pathlib import Path

import numpy as np

import dpgfem
import dpgfem.cli

CONFIGS = Path(__file__).resolve().parent / "configs"

# Operations that fail every time because of a named fault in dpgfem.
# They are counted as failed; they do not make a run incorrect.  A
# failure is recorded as (label, detail, note), the note naming the
# fault when the failure is a known one and None otherwise.
KNOWN_FAULTS = {
    "study_2d/ultraweak_dcr L2 rates": (
        "known fault: dpgfem.cli._formulation_for calls make_formulation "
        "without ManufacturedCase.params, so ultraweak_dcr solves with "
        "beta=0, gamma=0 against the dcr_sine_2d load built for "
        "beta=(0.3,-0.2), gamma=0.5"),
}

POISSON_LEVELS = 5
DCR_LEVELS = 4
MAXWELL_LEVELS = 3
MAXWELL_CELLS = [5, 40, 320]
VERIFY_RECORDS = 30
OPNORM_LEVEL = 3  # 512 cells
OPNORM_SEED = 0


class Round:
    """Operations attempted and failed, plus the reports one round wrote."""

    def __init__(self, workload, out):
        self.workload = workload
        self.out = Path(out)
        self.out.mkdir(parents=True, exist_ok=True)
        self.attempted = 0
        self.failures = []
        self.reports = []

    def op(self, label, ok, detail=""):
        self.attempted += 1
        if not ok:
            label = f"{self.workload}/{label}"
            self.failures.append((label, detail, KNOWN_FAULTS.get(label)))
        return ok

    def levels(self, label, rows, expected):
        """One operation per expected level; a missing level, or one
        without a finite error and estimate, fails."""
        for i in range(expected):
            row = rows[i] if i < len(rows) else None
            ok = row is not None and all(
                math.isfinite(float(row[k])) for k in ("err_total", "eta"))
            self.op(f"{label} level {i}", ok,
                    "missing" if row is None else "non-finite result")

    def report(self, name):
        path = self.out / name
        self.reports.append(path)
        return path


# -- property checks: each returns (ok, detail) ------------------------


def last_two_rate(hs, errs):
    """Log-log slope of errs against hs over the last two entries."""
    return math.log(errs[-2] / errs[-1]) / math.log(hs[-2] / hs[-1])


def check_rate(hs, errs, least):
    rate = last_two_rate(hs, errs)
    return rate >= least, f"rate {rate:.3f} (need >= {least})"


def check_drift(etas, errs, factor=2.0):
    ratios = np.asarray(etas, dtype=float) / np.asarray(errs, dtype=float)
    drift = float(ratios.max() / ratios.min())
    return drift < factor, f"eta/error drift {drift:.3f} (need < {factor})"


def check_effectivity(eta, bnorm, error, slack=1.05):
    bound = slack * bnorm * error
    return eta <= bound, (f"eta {eta:.6g} vs {slack}*||b||*error "
                          f"{bound:.6g} (||b|| {bnorm:.6g})")


def check_rising_to(values, floor):
    rising = bool(np.all(np.diff(values) > 0))
    last = values[-1] if len(values) else None
    return rising and last is not None and last >= floor, \
        f"strictly rising {rising}, last {last} (need >= {floor})"


def check_falling(values):
    ok = bool(np.all(np.diff(np.asarray(values, dtype=float)) < 0))
    return ok, f"strictly falling {ok}"


def check_slope(dofs, etas, most=-1.0):
    """Least-squares slope of log eta against log dofs, last half."""
    half = len(dofs) // 2
    slope = float(np.polyfit(np.log(np.asarray(dofs[half:], dtype=float)),
                             np.log(np.asarray(etas[half:], dtype=float)),
                             1)[0])
    return slope <= most, f"slope {slope:.3f} (need <= {most})"


def check_equal(got, want):
    return got == want, f"got {got}, want {want}"


def check_below(values, tol):
    worst = float(np.max(values))
    return worst < tol, f"worst {worst:.3e} (need < {tol:.0e})"


# -- helpers -----------------------------------------------------------


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def column(rows, key):
    return [float(r[key]) for r in rows]


def run_cli(config, out, *extra):
    """dpgfem's own entry point on one committed config file."""
    return dpgfem.cli.main([str(CONFIGS / config), "--out", str(out),
                            *extra])


def solve_ladder(form, mesh, case, levels):
    """Uniform study through the library, one row per level."""
    rows = []
    for level in range(levels):
        if level > 0:
            mesh = dpgfem.refine_uniform(mesh)
        disc = dpgfem.Discretization(form, mesh)
        A, f = disc.assemble(case)
        x = disc.solve(A, f)
        est = disc.estimate(x, case)
        errors = disc.measure_error(x, case)
        row = {"level": level, "cells": mesh.ncells, "h": mesh.mesh_size,
               "dofs": disc.ndof}
        for s in form.trial_slots + form.interface_slots:
            row[f"err_{s.name}"] = errors[s.name]["natural"]
        row.update({"err_total": errors["total"], "eta": est.eta,
                    "orthogonality": est.orthogonality})
        rows.append(row)
    return rows


# -- workloads ---------------------------------------------------------


def study_2d(rnd):
    """Poisson and ultraweak DCR studies, then ||b|| on 512 cells."""
    path = rnd.report("study_poisson.csv")
    rc = run_cli("poisson_study.cfg", path)
    rows = read_csv(path) if rc == 0 else []
    rnd.levels("primal_poisson", rows, POISSON_LEVELS)
    if len(rows) == POISSON_LEVELS:
        hs = column(rows, "h")
        rnd.op("primal_poisson H1 rate",
               *check_rate(hs, column(rows, "err_u"), 1.8))
        rnd.op("primal_poisson eta/error drift",
               *check_drift(column(rows, "eta"), column(rows, "err_total")))
        mesh = dpgfem.build_structured("unit-square", 2)
        for _ in range(OPNORM_LEVEL):
            mesh = dpgfem.refine_uniform(mesh)
        disc = dpgfem.Discretization(
            dpgfem.make_formulation("primal_poisson", 1), mesh)
        bnorm = disc.opnorm(seed=OPNORM_SEED)
        row = rows[OPNORM_LEVEL]
        rnd.op("primal_poisson effectivity bound",
               *check_effectivity(float(row["eta"]), bnorm,
                                  float(row["err_total"])))
    else:
        for label in ("H1 rate", "eta/error drift", "effectivity bound"):
            rnd.op(f"primal_poisson {label}", False, "study incomplete")

    path = rnd.report("study_dcr.csv")
    rc = run_cli("dcr_study.cfg", path)
    rows = read_csv(path) if rc == 0 else []
    rnd.levels("ultraweak_dcr", rows, DCR_LEVELS)
    ok, detail = False, "study incomplete"
    if len(rows) == DCR_LEVELS:
        hs = column(rows, "h")
        results = {s: check_rate(hs, column(rows, f"err_{s}"), 0.8)
                   for s in ("u", "sigma")}
        ok = all(r[0] for r in results.values())
        detail = ", ".join(f"{s} {r[1]}" for s, r in results.items())
    rnd.op("ultraweak_dcr L2 rates", ok, detail)


def study_maxwell(rnd):
    """maxwell_primal_E economy, delta=2, on 5, 40 and 320 tetrahedra.

    Runs through the library: a config cannot select the mode.
    """
    form = dpgfem.make_formulation("maxwell_primal_E", 1, delta=2,
                                   mode="economy")
    case = dpgfem.manufactured_case("maxwell_sine_3d")
    rows = solve_ladder(form, dpgfem.build_structured("unit-cube", 1), case,
                        MAXWELL_LEVELS)
    dpgfem.write_report(rows, rnd.report("study_maxwell.csv"), "csv")
    rnd.levels("maxwell_primal_E", rows, MAXWELL_LEVELS)
    rnd.op("maxwell_primal_E cells",
           *check_equal([r["cells"] for r in rows], MAXWELL_CELLS))
    rnd.op("maxwell_primal_E H(curl) rate",
           *check_rate(column(rows, "h"), column(rows, "err_E"), 0.7))
    rnd.op("maxwell_primal_E estimate orthogonality",
           *check_below(column(rows, "orthogonality"), 1e-9))


def adaptive_lshape(rnd):
    """Adaptive primal Poisson p=2 on the L-shape up to 4000 dofs."""
    path = rnd.report("adaptive.csv")
    rc = run_cli("lshape_adaptive.cfg", path)
    rows = read_csv(path) if rc == 0 else []
    for i, row in enumerate(rows):
        rnd.op(f"adaptive iteration {i}", math.isfinite(float(row["eta"])),
               "non-finite eta")
    if not rows:
        rnd.op("adaptive iteration 0", False, f"cli exit code {rc}")
    dofs = [int(r["dofs"]) for r in rows]
    etas = column(rows, "eta")
    rnd.op("adaptive dofs rise to max_dofs", *check_rising_to(dofs, 4000))
    rnd.op("adaptive eta falls", *check_falling(etas))
    ok, detail = (check_slope(dofs, etas, -1.0) if len(rows) >= 4
                  else (False, "too few iterations"))
    rnd.op("adaptive eta-dofs slope", ok, detail)


def verify(rnd):
    """`dpgfem verify` over all five suites with seed 0, one worker."""
    path = rnd.report("verify.jsonl")
    rc = run_cli("verify.cfg", path, "--seed", "0")
    records = []
    if path.exists():
        with open(path, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
    for i in range(VERIFY_RECORDS):
        rec = records[i] if i < len(records) else None
        rnd.op(f"verify record {i}", rec is not None and rec["pass"],
               "missing" if rec is None else f"{rec['case']} failed")
    rnd.op("verify exit code", *check_equal(rc, 0))
    rnd.op("verify records all pass",
           *check_equal((len(records), all(r["pass"] for r in records)),
                        (VERIFY_RECORDS, True)))
    perp = [r["value"] for r in records if r["case"] == "P0_perp-dim-p1"]
    rnd.op("verify P0_perp dimension", *check_equal(perp, [6 * 1 + 11.0]))


WORKLOADS = {
    "study_2d": study_2d,
    "study_maxwell": study_maxwell,
    "adaptive_lshape": adaptive_lshape,
    "verify": verify,
}
