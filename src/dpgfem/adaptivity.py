"""Dorfler marking and the adaptive solve-estimate-mark-refine loop."""

from collections import namedtuple

import numpy as np

from .meshes import _integer, refine_marked
from .system import Discretization

AdaptiveState = namedtuple("AdaptiveState", "mesh disc x estimate")

HISTORY_COLUMNS = ("iteration", "dofs", "eta", "error_total_or_nan", "cells")


class AdaptiveHistory:
    """Per-iteration log of an adaptive run.

    Each record keeps the trial dof count, the residual estimate eta,
    the total error against the exact solution when the case provides
    one (NaN otherwise), the cell count, and per-slot errors when they
    were measurable.
    """

    def __init__(self):
        self.records = []

    def append(self, dofs, eta, error_total, cells, slot_errors=None):
        if self.records and int(dofs) <= self.records[-1]["dofs"]:
            raise ValueError(
                f"dof count must strictly increase, got {dofs} after "
                f"{self.records[-1]['dofs']}")
        rec = {
            "iteration": len(self.records),
            "dofs": int(dofs),
            "eta": float(eta),
            "error_total_or_nan": float(error_total),
            "cells": int(cells),
        }
        if slot_errors is not None:
            rec["slot_errors"] = slot_errors
        self.records.append(rec)

    def __len__(self):
        return len(self.records)

    def __getitem__(self, i):
        return self.records[i]

    @property
    def etas(self):
        return np.array([r["eta"] for r in self.records])

    @property
    def dofs(self):
        return np.array([r["dofs"] for r in self.records])

    def rows(self):
        """Flat report rows, one per iteration, in the history column order."""
        return [{k: r[k] for k in HISTORY_COLUMNS} for r in self.records]


def mark(est, theta):
    """Smallest greedy Dorfler set covering the fraction theta.

    Cells are taken by descending eta_K, ties broken by ascending cell
    id, until the marked cells hold at least theta^2 of the squared
    total.  theta = 1 marks every cell with a positive indicator; an
    all-zero estimator yields the empty set, and a NaN or infinite
    indicator is an error.
    """
    if not 0.0 < theta <= 1.0:
        raise ValueError(f"marking fraction must lie in (0, 1], got {theta}")
    eta_cells = np.asarray(getattr(est, "eta_cells", est), dtype=float)
    bad = np.count_nonzero(~np.isfinite(eta_cells))
    if bad:
        raise ValueError(f"{bad} of {len(eta_cells)} error indicators are "
                         f"not finite")
    q = eta_cells ** 2
    npos = int(np.count_nonzero(q > 0.0))
    if npos == 0:
        return set()
    order = np.lexsort((np.arange(len(q)), -q))[:npos]
    if theta == 1.0:
        return set(int(c) for c in order)
    csum = np.cumsum(q[order])
    k = int(np.searchsorted(csum, theta * theta * float(np.sum(q)))) + 1
    return set(int(c) for c in order[:min(k, npos)])


def adaptive_solve(formulation, mesh0, case, theta, max_iterations=None,
                   max_dofs=None):
    """Run solve -> estimate -> mark -> refine until a stop rule fires.

    Returns the history together with the final state (mesh,
    discretization, coefficient vector, estimate).  Refinement keeps
    every intermediate mesh conforming, so the loop can always continue
    up to the requested limit.
    """
    if max_iterations is None and max_dofs is None:
        raise ValueError("need a stopping rule: max_iterations or max_dofs")
    for name, limit in (("max_iterations", max_iterations),
                        ("max_dofs", max_dofs)):
        if limit is not None and _integer(name, limit) < 1:
            raise ValueError(f"{name} must be at least 1, got {limit}")
    history = AdaptiveHistory()
    mesh = mesh0
    while True:
        disc = Discretization(formulation, mesh)
        A, f = disc.assemble(case)
        x = disc.solve(A, f)
        est = disc.estimate(x, case)
        errors = None
        total = np.nan
        if case is not None and case.has_exact:
            errors = disc.measure_error(x, case)
            total = errors["total"]
        history.append(disc.ndof, est.eta, total, mesh.ncells, errors)
        if max_iterations is not None and len(history) >= max_iterations:
            break
        if max_dofs is not None and disc.ndof >= max_dofs:
            break
        marked = mark(est, theta)
        if not marked:
            break
        mesh = refine_marked(mesh, marked)
    return history, AdaptiveState(mesh, disc, x, est)
