"""Numerical certification of the analytical building blocks.

``verify_records`` runs five suites.  On Linux it runs them in worker
processes forked from the caller, one per CPU in
``os.sched_getaffinity(0)`` and at most one per suite; with one CPU
(``taskset -c 0``), one suite, or off Linux they run in the calling
process.  The records are identical either way.  The workers inherit
the caller's BLAS thread count, and the suites' dense operations are
small: with OpenBLAS's default two threads on a 2-core machine they
take about three times as long as with one, so run verification with
``OPENBLAS_NUM_THREADS=1``.

The Fortin suite reads ``fortin.py``; the other four, built here, each
compute every quantity once: trace duality gaps on the reference
tetrahedron; interface annihilation by conforming test functions;
dense inf-sup surveys over the formulation catalog; and the
stability bound that the broken test space inherits from its conforming
subspace.  The duality workspaces integrate on the degree-2q rule, exact
for their integrands, hold surface data as the TetQuadrature.surface
coefficients the Fortin spaces use, share one graph Gram and Cholesky
factor per (family, degree), and take one SVD each, of the trace map
in the whitened coordinates of that factor; the two H(curl) pairings
share one, on two in-face components.  The last three suites read the
element stacks in whitened coordinates, T = diag(L_K^{-1}) B and
Z = diag(L_K^H) C, so the broken test Gram diag(L_K L_K^H) is never
formed or factored.  These are real, in the phased coordinates of the
stacks (``Formulation.phases``): the constants do not change under the
unitary scaling, and a phase only scales a column of C, whose columns
each lie in one test slot.  Every span is a modal basis tabulated as one
matrix product of its folded coefficients with the monomials, which
come from per-axis power tables, bit-identical to the term-by-term
product.

Each suite yields its checks as (case, value, relation, bound), and
``_suite_records`` alone decides whether each passes.
"""

import operator
import os
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import cholesky, solve_triangular, svd

from .formulations import MAXWELL_IDS, make_formulation
from .fortin import REFERENCE_TET, TetQuadrature, default_samples
from .polynomials import trace_dimension
from .reference import _integrate, _rank, conforming_basis
from .spaces import conforming_map
from .system import Discretization, _lower_inverse

# the diffusion forms of the inf-sup survey (primal_poisson is primal_dcr
# with the default coefficients)
INFSUP_DCR_IDS = ("primal_dcr", "ultraweak_dcr", "mixed_dcr",
                  "dual_mixed_dcr", "strong_dcr")

_PAIRINGS = {
    "grad/div": ("h1", "hdiv"),
    "div/grad": ("hdiv", "h1"),
    "curlT/curlD": ("hcurl", "hcurl"),
    "curlD/curlT": ("hcurl", "hcurl"),
}

# TetQuadrature.trace kinds of the extension and the dual field of each
# pairing: the dual field enters through the complementary trace
_MODES = {
    "grad/div": ("value", "normal"),
    "div/grad": ("normal", "value"),
    "curlT/curlD": ("tangential", "rotated"),
    "curlD/curlT": ("rotated", "tangential"),
}


# -- duality gap ---------------------------------------------------------


class _DualityWorkspace:
    """Trace maps for one (pairing, q), factored once.

    Surface data are TetQuadrature.surface coefficients over an
    orthonormal basis of P_q on each face, which holds the trace of
    every degree-q field.  With G = R^T R the graph Gram of a span, the
    whitened span R^{-T} is orthonormal in the graph norm.  The traces
    of the whitened extension span have one SVD, P S U^T; the
    minimum-energy extension of a trace with coefficients c then has
    graph norm |S^{-1} U^T c|, and the dual norm of the trace is
    |R_dual^{-T} b| for b its moments against the dual span.  Rules and
    graph Gram factors are shared.

    Tangential data keep two components, in the quadrature's orthonormal
    frame (e1, e2 = n x e1) of each face.  In that frame the rotated trace
    n x v is the tangential trace turned by 90 degrees, (t1, t2) ->
    (-t2, t1), so the curlD/curlT workspace reuses the curlT/curlD SVD
    with the rows of U^T turned the same way.
    """

    def __init__(self, pairing, q):
        ext_family, dual_family = _PAIRINGS[pairing]
        ext_mode, dual_mode = _MODES[pairing]
        self.quad = quad = _duality_quadrature(q)
        self.ext_factor = _graph_gram_factor(ext_family, q)
        self.dual_factor = _graph_gram_factor(dual_family, q)
        self.dual_traces = quad.surface(
            quad.span(dual_family, q, quad.face_ref), dual_mode)
        if ext_mode == "rotated":
            tangential = _workspace("curlT/curlD", q)
            self.sv, self.Ut = tangential.sv, _turned(tangential.Ut)
            return
        ext = quad.surface(quad.span(ext_family, q, quad.face_ref), ext_mode)
        _, sv, Ut = svd(solve_triangular(self.ext_factor, ext, trans="T"),
                        full_matrices=False)
        rank = _rank(sv)
        expected = trace_dimension(ext_family, q)
        if rank != expected:
            raise RuntimeError(
                f"{pairing} workspace at q={q}: trace rank {rank}, "
                f"expected {expected}")
        self.sv, self.Ut = sv[:rank], Ut[:rank]


def _turned(coeffs):
    """Face coefficients (..., 4 * 2 * nb) of in-face vector data turned
    by 90 degrees in each face, (t1, t2) -> (-t2, t1)."""
    c = coeffs.reshape(coeffs.shape[:-1] + (4, 2, -1))
    return np.stack([-c[..., 1, :], c[..., 0, :]],
                    axis=-2).reshape(coeffs.shape)


@lru_cache(maxsize=None)
def _duality_quadrature(q):
    """The reference tetrahedron rule of the degree-q workspaces, exact
    for their integrands, which have degree at most 2q."""
    return TetQuadrature(REFERENCE_TET, 2 * q)


@lru_cache(maxsize=None)
def _graph_gram(family, q):
    """Graph-norm Gram of the degree-q modal basis of a family."""
    quad = _duality_quadrature(q)
    w = quad.vol_weights[:, None]
    v = quad.span(family, q, quad.vol_ref)
    d = quad.span(family, q, quad.vol_ref, deriv=True)
    G = _integrate(v, v, w) + _integrate(d, d, w)
    G.flags.writeable = False
    return G


@lru_cache(maxsize=None)
def _graph_gram_factor(family, q):
    """The upper Cholesky factor R of a graph Gram, G = R^T R."""
    R = cholesky(_graph_gram(family, q))
    R.flags.writeable = False
    return R


@lru_cache(maxsize=None)
def _workspace(pairing, q):
    return _DualityWorkspace(pairing, q)


def duality_norms(pairing, q, field):
    """(quotient, dual) norms at degree q of the trace of one polynomial
    field, a point callable, of the kind of the pairing's extension."""
    if pairing not in _PAIRINGS:
        raise ValueError(f"unknown pairing {pairing!r}")
    ws = _workspace(pairing, q)
    quad = ws.quad
    mode = _MODES[pairing][0]
    face = quad.sample([field])[1]
    # judge attainability on the point energy of the trace, not on its
    # surface coefficients, which drop any part above degree q
    t = quad.trace(face, mode)[0]
    tn2 = float(np.sum(t * t * quad.face_weights[..., None]))
    if tn2 < 1e-28:
        return 0.0, 0.0
    c = quad.surface(face, mode)[0]
    dual = float(np.linalg.norm(solve_triangular(
        ws.dual_factor, ws.dual_traces @ c, trans="T")))
    r = ws.Ut @ c
    if tn2 - r @ r > 1e-10 * tn2:
        raise RuntimeError(
            f"trace is not attainable in the degree-{q} extension space "
            f"(unmatched surface energy {tn2 - r @ r:.3e})")
    quot = float(np.linalg.norm(r / ws.sv))
    return quot, dual


def duality_gap(pairing, q, field):
    """|quotient/dual - 1| for the trace of one field; 0 when the trace
    vanishes."""
    quot, dual = duality_norms(pairing, q, field)
    if dual == 0.0 and quot == 0.0:
        return 0.0
    return abs(quot / dual - 1.0)


def duality_traces(pairing, degree, seed=0, count=5):
    """Fixed random polynomial fields, scalar for 'grad/div' and vector
    otherwise, whose traces the pairing measures."""
    kind = "grad" if pairing == "grad/div" else "curl"
    return default_samples(kind, 1, seed=seed, count=count, degree=degree)


def duality_suite(p=1, seed=0, count=5, qs=None):
    """Gap sweep for all four pairings; returns per-pairing gap tables."""
    if qs is None:
        qs = (p + 2, p + 4, p + 6)
    out = {}
    for pairing in _PAIRINGS:
        fields = duality_traces(pairing, min(qs) - 2, seed=seed, count=count)
        out[pairing] = np.array([[duality_gap(pairing, q, f) for q in qs]
                                 for f in fields])
    return out


# -- dense mesh-level systems ---------------------------------------------


def _whitened_system(disc):
    """Dense whitened broken operator T = diag(L_K^{-1}) B, whose cell
    rows are the stacks' W_K in global coefficients, so that
    B^H Gy^{-1} B = T^H T; and the free trial dofs."""
    st = disc.element_stacks
    nc, nt = len(st.cls), disc.ntest_local
    rows = np.arange(nc * nt).reshape(nc, nt)
    T = np.zeros((nc * nt, disc.ndof))
    T[rows[:, :, None], st.cols[:, None, :]] = \
        st.W[st.cls] * st.facs[:, None, :]
    free = np.where(~disc.constrained_dofs())[0]
    return T, free


def _whiten_tests(disc, C):
    """Whitened coefficients Z = diag(L_K^H) C of broken test functions
    C (one per column), so that C^H Gy C = Z^H Z and C^H B = Z^H T."""
    st = disc.element_stacks
    L = _lower_inverse(st.Linv)[st.cls]
    nc, nt = L.shape[:2]
    return (np.swapaxes(L, 1, 2) @ C.reshape(nc, nt, -1)).reshape(C.shape)


def _gen_singular_values(T, Gx):
    """Singular values of a whitened operator T against the trial norm
    Gram Gx."""
    try:
        Lx = cholesky(Gx, lower=True)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("singular norm Gram") from exc
    T = solve_triangular(Lx, T.T, lower=True).T
    return svd(T, compute_uv=False)


def conforming_test_embedding(disc):
    """Broken-test coefficients of a basis of the conforming subspace.

    Columns follow the formulation's per-slot conforming rules: slots
    with a rule contribute a globally matched basis of the conforming
    space of their own family and degree, which vanishes on the boundary
    when the rule says so; slots without a rule are L2-type and
    contribute their full broken block.  A conforming function's broken
    coefficients on every cell are the conforming basis's modal
    coefficients, since both bases push to the cell the same way.
    """
    mesh = disc.mesh
    nt = disc.ntest_local
    ny = nt * mesh.ncells
    pieces = []
    for s, zero_b in zip(disc.form.test_slots, disc.form.y0_rule):
        nb = disc._tables[s.name].basis.nfuncs
        # each cell's rows of the slot's broken functions
        rows = (np.arange(mesh.ncells)[:, None] * nt
                + disc.test_offset(s.name) + np.arange(nb))
        if zero_b is None:
            C = np.zeros((ny, rows.size))
            C[rows, np.arange(rows.size).reshape(rows.shape)] = 1.0
            pieces.append(C)
            continue
        basis_c = conforming_basis(s.family, s.degree, mesh.dim)
        cmap = conforming_map(mesh, basis_c)
        C = np.zeros((ny, cmap.ndofs))
        C[rows[:, :, None], cmap.cell_dofs[:, None, :]] = \
            basis_c.coeffs.T * cmap.cell_factors[:, None, :]
        if zero_b:
            C = C[:, ~cmap.boundary]
        pieces.append(C)
    return np.concatenate(pieces, axis=1)


# -- interface annihilation -----------------------------------------------


@dataclass
class AnnihilationResult:
    formulation: str
    conforming_max: float
    witness: float


def annihilation_check(formulation, mesh, p, delta=3, mode="guaranteed"):
    """Pair every interface basis function with conforming test functions.

    Conforming pairings must vanish; restricting one conforming
    function to a single cell must produce a visible pairing, showing
    the form detects nonconformity.  Pairings are normalized by the
    broken Riesz norm of the functional and the test norm.
    """
    form = make_formulation(formulation, p=p, delta=delta, mode=mode)
    disc = Discretization(form, mesh)
    if not form.interface_slots:
        raise ValueError("formulation has no interface unknowns")
    T, _ = _whitened_system(disc)
    That = T[:, disc.ndof_field:]
    dualnorm = np.maximum(np.linalg.norm(That, axis=0), 1e-300)
    C = conforming_test_embedding(disc)
    Z = _whiten_tests(disc, C)
    ynorm = np.maximum(np.linalg.norm(Z, axis=0), 1e-300)
    P = np.abs(Z.T @ That)
    conforming_max = float((P / ynorm[:, None] / dualnorm[None, :]).max())

    # every conforming function supported on two or more cells, restricted
    # to one of its cells
    nc, nt = disc.mesh.ncells, disc.ntest_local
    Zc, Tc = Z.reshape(nc, nt, -1), That.reshape(nc, nt, -1)
    support = (C.reshape(nc, nt, -1) != 0).any(axis=1)
    yn = np.linalg.norm(Zc, axis=1)
    use = support & (support.sum(axis=0) >= 2) & (yn >= 1e-14)
    pair = (np.abs(np.swapaxes(Zc, 1, 2) @ Tc) / dualnorm).max(axis=2)
    witness = float((pair[use] / yn[use]).max(initial=0.0))
    return AnnihilationResult(form.id, conforming_max, witness)


# -- inf-sup surveys -------------------------------------------------------


@dataclass
class SurveyReport:
    formulation: str
    mesh: str
    p: int
    infsup: float


def _mesh_tag(mesh):
    return f"{mesh.ncells}-cell-{mesh.dim}d"


def infsup_survey(formulations, mesh, p, delta=3, mode="guaranteed",
                  params=None):
    """Discrete inf-sup constants over free trial dofs and broken tests."""
    if mesh.ncells > 200:
        raise ValueError("survey meshes are limited to 200 cells")
    reports = []
    for fid in formulations:
        form = make_formulation(fid, p=p, delta=delta, mode=mode,
                                params=params)
        disc = Discretization(form, mesh)
        T, free = _whitened_system(disc)
        Gx = disc.trial_gram().toarray()[np.ix_(free, free)]
        sv = _gen_singular_values(T[:, free], Gx)
        reports.append(SurveyReport(fid, _mesh_tag(mesh), p,
                                    float(sv[-1])))
    return reports


BrokenStability = namedtuple(
    "BrokenStability",
    "c1_discrete c1_formula c0 chat b0norm")


def broken_stability_bound(formulation, mesh, p, delta=3, mode="guaranteed"):
    """The inherited stability bound of the broken formulation.

    c0 is the inf-sup constant of the field form over the conforming
    test subspace, chat the interface inf-sup over the full broken
    space, and the bound combines them through
    1/c1^2 = 1/c0^2 + (1/chat^2) (|b0|/c0 + 1)^2.
    """
    form = make_formulation(formulation, p=p, delta=delta, mode=mode)
    disc = Discretization(form, mesh)
    T, free = _whitened_system(disc)
    Gx = disc.trial_gram().toarray()
    free_f = free[free < disc.ndof_field]
    # with Z = Q R, C^H Gy C = R^H R and C^H B = R^H Q^H T: the operator
    # on the conforming test subspace, whitened, is Q^H T
    Q, R = np.linalg.qr(_whiten_tests(disc, conforming_test_embedding(disc)))
    d = np.abs(np.diag(R))
    if d.min() <= 1e-8 * d.max():
        raise RuntimeError("singular norm Gram")
    sv0 = _gen_singular_values(Q.T @ T[:, free_f],
                               Gx[np.ix_(free_f, free_f)])
    c0, b0norm = float(sv0[-1]), float(sv0[0])
    free_i = free[free >= disc.ndof_field]
    chat = float(_gen_singular_values(T[:, free_i],
                                      Gx[np.ix_(free_i, free_i)])[-1])
    sv = _gen_singular_values(T[:, free], Gx[np.ix_(free, free)])
    c1_discrete = float(sv[-1])
    c1_formula = 1.0 / np.sqrt(
        1.0 / c0 ** 2 + (b0norm / c0 + 1.0) ** 2 / chat ** 2)
    return BrokenStability(c1_discrete, float(c1_formula), c0, chat, b0norm)


def _fortin_suite(seed):
    from .fortin import fortin_build, fortin_commuting, fortin_moments
    p = 1
    systems = {k: fortin_build(k, p) for k in ("grad", "curl", "div")}
    for kind, sys_ in systems.items():
        samples = default_samples(kind, p, seed=seed)
        yield (f"{kind}-moments-p{p}",
               fortin_moments(kind, p, samples, system=sys_), "<", 1e-9)
    yield f"commuting-p{p}", fortin_commuting(p, systems=systems), "<", 1e-9
    yield (f"P0_perp-dim-p{p}", systems["curl"].dims["P0_perp"], "==",
           6 * p + 11)


def _duality_suite_records(seed):
    p = 1
    qs = (p + 2, p + 4, p + 6)
    for pairing, table in duality_suite(p=p, seed=seed, qs=qs).items():
        yield f"{pairing}-gap-q{qs[-1]}", np.max(table[:, -1]), "<", 0.05
        yield f"{pairing}-monotone", np.max(np.diff(table, axis=1)), "<=", 0.0


def _annihilation_suite(seed):
    from .meshes import build_structured
    for fid, domain in (("primal_poisson", "unit-square"),
                        ("maxwell_primal_E", "unit-cube")):
        res = annihilation_check(fid, build_structured(domain, 1), p=1)
        yield f"{fid}-conforming", res.conforming_max, "<", 1e-12
        yield f"{fid}-witness", res.witness, ">", 1e-3


def _infsup_suite(seed):
    from .meshes import build_structured
    for ids, domain, n in ((INFSUP_DCR_IDS, "unit-square", 2),
                           (MAXWELL_IDS, "unit-cube", 1)):
        for rep in infsup_survey(ids, build_structured(domain, n), p=1):
            yield f"{rep.formulation}-{rep.mesh}", rep.infsup, ">", 0.0


def _stability_suite(seed):
    from .meshes import build_structured
    for n in (1, 2):
        mesh = build_structured("unit-square", n)
        res = broken_stability_bound("primal_poisson", mesh, p=1)
        yield (f"primal_poisson-{_mesh_tag(mesh)}",
               res.c1_discrete - res.c1_formula, ">=", -1e-10)


_RELATIONS = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
              ">=": operator.ge, "==": operator.eq}

_SUITES = {
    "fortin": _fortin_suite,
    "duality": _duality_suite_records,
    "annihilation": _annihilation_suite,
    "infsup": _infsup_suite,
    "stability": _stability_suite,
}


# the suites by their time in a fresh process with one BLAS thread on a
# 2-core x86-64 machine, longest first (medians of seven processes each):
# duality 0.31 s, infsup 0.21 s, fortin 0.08 s, annihilation 0.06 s,
# stability 0.02 s
_LONGEST_FIRST = ("duality", "infsup", "fortin", "annihilation", "stability")


def _suite_records(name, seed):
    """One suite's records: each keeps its check's bound as tolerance
    and passes when the value stands in the relation to the bound."""
    return [{"suite": name, "case": case, "value": float(value),
             "tolerance": float(bound),
             "pass": bool(_RELATIONS[relation](float(value), float(bound)))}
            for case, value, relation, bound in _SUITES[name](seed)]


def _worker_count(nsuites):
    """Worker processes for nsuites suites: one per CPU this process may
    run on, at most one per suite; 0, for a run in this process, off
    Linux or when that leaves fewer than two."""
    if not sys.platform.startswith("linux"):
        return 0
    workers = min(len(os.sched_getaffinity(0)), nsuites)
    return workers if workers > 1 else 0


def _records_from_workers(names, seed, workers):
    """Each suite one task of a pool of forked workers, submitted longest
    first; the records in the order of names."""
    # imported on first use, so that importing dpgfem does not pay for them
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context
    futures = {}
    # fork, not spawn: a spawned worker would import numpy, scipy and
    # dpgfem again, about as long as the suites it runs.  The caller
    # must hold no lock in another thread; OpenBLAS quiesces its own
    # threads across fork.
    with ProcessPoolExecutor(workers, mp_context=get_context("fork")) as pool:
        try:
            for name in sorted(names, key=_LONGEST_FIRST.index):
                futures[name] = pool.submit(_suite_records, name, seed)
        except BrokenProcessPool:
            pass
    # leaving the pool waited for every task and joined every worker
    lost = [name for name in names if name not in futures
            or isinstance(futures[name].exception(), BrokenProcessPool)]
    if lost:
        raise RuntimeError(
            "a verification worker process died before the suites "
            + ", ".join(map(repr, lost)) + " finished")
    return [rec for name in names for rec in futures[name].result()]


def verify_records(seed=0, suites=None):
    """Run verification suites and return flat report records.

    Each record is a dict with keys suite, case, value, tolerance and
    pass, in the order of the suites named (all five, in their fixed
    order, when None), so a fixed seed reproduces the report byte for
    byte.  The tolerance is the bound that the value is compared with.

    On Linux the suites run in worker processes forked from this one,
    which inherit its imported modules, caches and BLAS thread count:
    one worker per CPU in ``os.sched_getaffinity(0)``, at most one per
    suite, each suite one task, the longest first.  With one CPU (as
    under ``taskset -c 0``), one suite, or off Linux, they run in this
    process.  The records are the same either way.  Set
    ``OPENBLAS_NUM_THREADS=1``: each worker runs the caller's BLAS
    thread count, and more than one only slows these small dense
    operations.  Every worker has exited when this returns; an
    exception raised in a suite reaches the caller with its type and
    message, and a worker that dies is a RuntimeError naming the suites
    left unfinished.
    """
    names = list(_SUITES) if suites is None else list(suites)
    if not names:
        raise ValueError("suites names no verification suite; choose from "
                         + ", ".join(_SUITES))
    for i, name in enumerate(names):
        if name not in _SUITES:
            raise ValueError(f"unknown verification suite {name!r}")
        if name in names[:i]:
            raise ValueError(f"suites names {name!r} twice")
    workers = _worker_count(len(names))
    if workers:
        return _records_from_workers(names, seed, workers)
    return [rec for name in names for rec in _suite_records(name, seed)]
