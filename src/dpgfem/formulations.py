"""Formulation catalog: slots, term tables, loads, manufactured cases.

Each formulation couples field slots (volume unknowns), interface slots
(skeleton unknowns) and broken test slots.  It is one catalog entry: its
slots and a table of terms, which one generic evaluator integrates on
all cells of a group at once.  The catalog writes three kinds of term:

* volume terms (coef, trial operand, test operand), integrating
  coef T x . conj(S y) over the cell;
* one pairing per interface slot (coef, slot, test trace, exact trace),
  integrating coef xhat . conj(trace of y) over each facet;
* loads (coef, test operand, case field), integrating coef f . conj(S y).

An operand is a slot name, alone for its values or after the word for
its family derivative ("grad u", "div tau", "curl E").  A test trace is
the test slot's value ("v"), its normal component ("n.tau") or its
rotated tangential trace ("nx S") with the outward normal: the kinds
'value', 'normal' and 'rotated' of ``reference.trace_factor``.  The
exact trace names the manufactured volume field whose trace the
interface slot carries, with its sign; the slot's space
(``spaces.InterfaceSpace``) takes the trace of its kind.  A
coefficient is a product of space-separated factors: "1", "i", a
parameter name, or "1/" and a name to divide; a leading "-" negates a
factor.  The vector beta multiplies a scalar operand or is dotted with a
vector one.

Conventions used throughout:

* forms are sesquilinear with conjugation on the test argument;
* every interface slot is the skeleton of a conforming space W (H1,
  H(div), H(curl) or vector H1) and enters through its trace with the
  outward normal: the value of W, its normal component W.n, or its
  tangential part, paired as <W, n x S> = int W . conj(n x S) over
  each element boundary;
* every slot has a phase, 1 or i (``_slot_phases``), which the kernels
  fold into the physical coefficients of the term tables: they return
  the real D_y^H G D_y and D_y^H B D_x, D the diagonal phase matrices
  of the test and trial slots, and the load D_y^H l.

The diffusion-convection-reaction operator is
A(sigma, u) = (alpha sigma - grad u - beta u, div sigma - gamma u)
with alpha = 1/a, and the Maxwell operator is
A(H, E) = (i omega mu H - curl E, i omega eps E + curl H).
The first-order forms write each of the two equations either strong or
integrated by parts ("weak"); the ultraweak forms integrate both, so
their volume terms are (x, A* y), and their test norm is the graph norm
||y||^2 + ||A* y||^2; the others take the natural norm.  The test inner
product is a term table too, built from the volume terms (``_gram``),
and one integrator turns either table into a stack, G or B's volume part.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .meshes import _integer
from .reference import _contract, _moments, trace_factor


@dataclass(frozen=True)
class Slot:
    """One variable of a formulation.

    continuity is 'conforming', 'broken' or 'skeleton'.  A skeleton
    (interface) slot holds the traces of the conforming space that
    family and degree describe: the flux of degree p+1 in H(div) has
    normal traces P_p on each facet.
    """
    name: str
    family: str
    degree: int
    continuity: str
    ncomp: int = 1
    zero_boundary: bool = False
    deriv_in_norm: bool = True


# Parsed terms.  Operands are (slot, 'val' | 'der'); coefficients are
# (constant, names multiplied, names divided).
Pairing = namedtuple("Pairing", "coef slot test trace exact")
Load = namedtuple("Load", "coef test field")


@dataclass(frozen=True)
class Formulation:
    id: str
    dim: int
    p: int
    delta: int
    mode: str
    params: dict
    trial_slots: tuple
    interface_slots: tuple
    test_slots: tuple
    y_norm: str  # 'natural' | 'graph'
    # per test slot: None (no conforming subspace restriction, i.e. the
    # L2 case) or whether the conforming subspace of the slot's family
    # vanishes on the boundary
    y0_rule: tuple = ()
    # terms (cx, x, cy, y) of b's volume part and the test norm
    volume: tuple = ()
    gram: tuple = ()
    pairings: tuple = ()
    loads: tuple = ()
    phases: dict = None  # slot name -> 1.0 or 1j (``_slot_phases``)

    @property
    def is_complex(self):
        return self.id in MAXWELL_IDS

    @property
    def dtype(self):
        """The dtype of the loads and solutions; matrices are real."""
        return complex if self.is_complex else float

    def slot(self, name):
        for s in self.trial_slots + self.interface_slots + self.test_slots:
            if s.name == name:
                return s
        raise KeyError(name)


# -- the catalog ---------------------------------------------------------
#
# Each first-order problem is two equations.  A piece is one equation,
# tested strongly or integrated by parts, as (volume, pairings, loads).

_DCR1 = {  # alpha sigma - grad u - beta u = 0, tested with tau
    "strong": ((("1/a", "sigma", "tau"), ("-1", "grad u", "tau"),
                ("-beta", "u", "tau")), (), ()),
    "weak": ((("1/a", "sigma", "tau"), ("-beta", "u", "tau"),
              ("1", "u", "div tau")), (("-1", "uhat", "n.tau", "u"),), ()),
}
_DCR2 = {  # div sigma - gamma u = -f2, tested with v
    "strong": ((("1", "div sigma", "v"), ("-gamma", "u", "v")), (),
               (("-1", "v", "f2"),)),
    "weak": ((("-1", "sigma", "grad v"), ("-gamma", "u", "v")),
             (("1", "sighat", "v", "sigma"),), (("-1", "v", "f2"),)),
}
_MAXWELL1 = {  # i omega mu H - curl E = 0, tested with R
    "strong": ((("i omega mu", "H", "R"), ("-1", "curl E", "R")), (), ()),
    "weak": ((("i omega mu", "H", "R"), ("-1", "E", "curl R")),
             (("1", "Ehat", "nx R", "E"),), ()),
}
# the ultraweak form stores -E in Ehat
_MAXWELL1["ultraweak"] = (_MAXWELL1["weak"][0],
                          (("-1", "Ehat", "nx R", "-E"),), ())
_MAXWELL2 = {  # i omega eps E + curl H = J, tested with S
    "strong": ((("1", "curl H", "S"), ("i omega eps", "E", "S")), (),
               (("1", "S", "J"),)),
    "weak": ((("1", "H", "curl S"), ("i omega eps", "E", "S")),
             (("1", "Hhat", "nx S", "-H"),), (("1", "S", "J"),)),
}
# The primal forms eliminate one field: -div(a grad u + a beta u)
# + gamma u = f2, and curl(curl E / mu) - omega^2 eps E = i omega J or
# curl(curl H / eps) - omega^2 mu H = curl(J / eps).
_PRIMAL_DCR = ((("a", "grad u", "grad v"), ("a beta", "u", "grad v"),
                ("gamma", "u", "v")),
               (("1", "sighat", "v", "-sigma"),), (("1", "v", "f2"),))
_PRIMAL_E = ((("1/mu", "curl E", "curl F"), ("-omega omega eps", "E", "F")),
             (("-i omega", "Hhat", "nx F", "H"),), (("i omega", "F", "J"),))
_PRIMAL_H = ((("1/eps", "curl H", "curl F"), ("-omega omega mu", "H", "F")),
             (("i omega", "Ehat", "nx F", "E"),), (("1/eps", "curl F", "J"),))

# Slots: trial and interface (name, family, degree - p, continuity[,
# zero_boundary]); test (name, family, y0) of degree q = p + delta, where
# y0 None marks an L2-type slot (no derivative in its norm, no conforming
# subspace) and otherwise says whether the conforming subspace vanishes
# on the boundary.  In guaranteed mode the conforming Maxwell fields
# "hcurl" become full vector H1 ("vec"), their interface parents one
# degree higher.
_SIGHAT = ("sighat", "hdiv", 1, "skeleton")
_UHAT = ("uhat", "h1", 1, "skeleton", True)
_HHAT = ("Hhat", "hcurl", 0, "skeleton")
_EHAT = ("Ehat", "hcurl", 0, "skeleton", True)

_PRIMAL = ([("u", "h1", 1, "conforming", True)], [_SIGHAT],
           [("v", "h1", True)], [_PRIMAL_DCR])

_CATALOG = {
    "primal_poisson": _PRIMAL,
    "primal_dcr": _PRIMAL,
    "ultraweak_dcr": ([("sigma", "vec", -1, "broken"),
                       ("u", "l2", -1, "broken")], [_UHAT, _SIGHAT],
                      [("tau", "hdiv", False), ("v", "h1", True)],
                      [_DCR1["weak"], _DCR2["weak"]]),
    "mixed_dcr": ([("sigma", "vec", -1, "broken"),
                   ("u", "h1", 1, "conforming", True)], [_SIGHAT],
                  [("tau", "vec", None), ("v", "h1", True)],
                  [_DCR1["strong"], _DCR2["weak"]]),
    "dual_mixed_dcr": ([("sigma", "hdiv", 1, "conforming"),
                        ("u", "l2", 0, "broken")], [_UHAT],
                       [("tau", "hdiv", False), ("v", "l2", None)],
                       [_DCR1["weak"], _DCR2["strong"]]),
    "strong_dcr": ([("sigma", "hdiv", 1, "conforming"),
                    ("u", "h1", 1, "conforming", True)], [],
                   [("tau", "vec", None), ("v", "l2", None)],
                   [_DCR1["strong"], _DCR2["strong"]]),
    "maxwell_primal_E": ([("E", "hcurl", 0, "conforming", True)], [_HHAT],
                         [("F", "hcurl", True)], [_PRIMAL_E]),
    "maxwell_primal_H": ([("H", "hcurl", 0, "conforming")], [_EHAT],
                         [("F", "hcurl", False)], [_PRIMAL_H]),
    "maxwell_ultraweak": ([("H", "vec", -1, "broken"),
                           ("E", "vec", -1, "broken")], [_HHAT, _EHAT],
                          [("R", "hcurl", False), ("S", "hcurl", True)],
                          [_MAXWELL1["ultraweak"], _MAXWELL2["weak"]]),
    "maxwell_mixed": ([("H", "vec", -1, "broken"),
                       ("E", "hcurl", 0, "conforming", True)], [_HHAT],
                      [("R", "vec", None), ("S", "hcurl", True)],
                      [_MAXWELL1["strong"], _MAXWELL2["weak"]]),
    "maxwell_dual_mixed": ([("H", "hcurl", 0, "conforming"),
                            ("E", "vec", -1, "broken")], [_EHAT],
                           [("R", "hcurl", False), ("S", "vec", None)],
                           [_MAXWELL1["weak"], _MAXWELL2["strong"]]),
    "maxwell_strong": ([("H", "hcurl", 0, "conforming"),
                        ("E", "hcurl", 0, "conforming", True)], [],
                       [("R", "vec", None), ("S", "vec", None)],
                       [_MAXWELL1["strong"], _MAXWELL2["strong"]]),
}

FORMULATION_IDS = tuple(_CATALOG)
MAXWELL_IDS = tuple(i for i in FORMULATION_IDS if i.startswith("maxwell"))
DCR_IDS = tuple(i for i in FORMULATION_IDS if not i.startswith("maxwell"))

_DEFAULTS = {"a": 1.0, "gamma": 0.0, "eps": 1.0, "mu": 1.0, "omega": 1.0}


def make_formulation(id, p, delta=3, dim=None, params=None, mode="guaranteed"):
    """Build a formulation from the catalog.

    Parameters: diffusion problems take a (scalar diffusion), beta
    (convection vector) and gamma (reaction); Maxwell problems take
    eps, mu, omega.  All are constants (or per-cell constant arrays).
    Only the names that the formulation's terms read are accepted.
    """
    if id not in FORMULATION_IDS:
        raise ValueError(f"unknown formulation id {id!r}")
    if _integer("p", p) < 1:
        raise ValueError(f"degree parameter p must be >= 1, got {p}")
    if _integer("delta", delta) not in (2, 3):
        raise ValueError(f"test enrichment delta must be 2 or 3, got {delta}")
    if mode not in ("guaranteed", "economy"):
        raise ValueError(f"unknown mode {mode!r}")
    maxwell = id in MAXWELL_IDS
    # the Maxwell Fortin operators (fortin.py) map into degree p + 3
    if maxwell and mode == "guaranteed" and delta < 3:
        raise ValueError(f"{id!r} in guaranteed mode needs delta >= 3, got "
                         f"{delta}; economy mode takes delta 2")
    if dim is None:
        dim = 3 if maxwell else 2
    if maxwell and dim != 3:
        raise ValueError("Maxwell formulations are three-dimensional")
    if not maxwell and dim not in (2, 3):
        raise ValueError("dim must be 2 or 3")
    trial, interface, test, pieces = _CATALOG[id]
    volume, pairings, loads = (sum((piece[k] for piece in pieces), ())
                               for k in range(3))
    phases = _slot_phases(
        id, [s[0] for s in trial + interface + test],
        [(c, _operand(x)[0], _operand(y)[0]) for c, x, y in volume]
        + [(c, slot, _trace(trace)[0]) for c, slot, trace, _ in pairings])
    q = p + delta
    trial = tuple(_slot(s, p, dim, mode) for s in trial)
    interface = tuple(_slot(s, p, dim, mode) for s in interface)
    y0 = tuple(zero for _, _, zero in test)
    test = tuple(Slot(name, family, q, "broken", _ncomp(family, dim),
                      deriv_in_norm=zero is not None)
                 for name, family, zero in test)
    volume = tuple((_coef(c), _operand(x), _coef("1"), _operand(y))
                   for c, x, y in volume)
    # interface columns follow the slot order
    order = [s.name for s in interface]
    pairings = tuple(Pairing(_coef(c), slot, *_trace(trace), _exact(exact))
                     for c, slot, trace, exact in
                     sorted(pairings, key=lambda pr: order.index(pr[1])))
    loads = tuple(Load(_coef(c), _operand(s), field) for c, s, field in loads)
    coefs = [t[0] for t in volume] + [t.coef for t in pairings + loads]
    params = _check_params(params, {k for c in coefs for k in c[1] + c[2]},
                           dim)
    # a form that takes no trial derivative is ultraweak: its volume
    # terms are (x, A* y), and its test norm the graph norm
    graph = all(x[1] == "val" for _, x, _, _ in volume)
    return Formulation(id, dim, p, delta, mode, params, trial, interface,
                       test, "graph" if graph else "natural", y0, volume,
                       _gram(test, trial, volume, graph), pairings, loads,
                       phases)


def _slot_phases(id, names, terms):
    """The phase, 1 or i, of every slot that makes each matrix term
    (coefficient, trial slot, test slot) real times the trial phase over
    the test phase: a parity problem on the slot graph.  The first slot
    of each connected part takes phase 1; the Gram terms, products of
    volume terms, fold real too."""
    terms = [(_coef(c)[0], x, y, c) for c, x, y in terms]
    phase = {}
    for start in names:
        phase.setdefault(start, 1.0)
        for _ in terms:  # each pass reaches at least one more slot
            for c, x, y, _ in terms:
                if (x in phase) != (y in phase):
                    known, new = (x, y) if x in phase else (y, x)
                    phase[new] = 1j if (c * phase[known]).imag else 1.0
    for c, x, y, text in terms:
        if (c * phase[x] * np.conj(phase[y])).imag:
            raise ValueError(f"{id!r}: no phases 1 or i of the slots make "
                             f"the term {text!r} on {x!r} and {y!r} real")
    return phase


def _check_params(params, names, dim):
    params = dict(params or {})
    for key in params:
        if key not in names:
            raise ValueError(f"unknown coefficient {key!r}; this formulation "
                             f"takes {', '.join(sorted(names))}")
    for key in names:
        params.setdefault(key, np.zeros(dim) if key == "beta"
                          else _DEFAULTS[key])
        val = np.asarray(params[key])
        if val.dtype.kind not in "iuf" or not np.all(np.isfinite(val)):
            raise ValueError(f"coefficient {key!r} must be real and finite")
    if "beta" in params:
        params["beta"] = np.asarray(params["beta"], dtype=float)
        if params["beta"].shape[-1:] != (dim,):
            raise ValueError(f"coefficient 'beta' must have {dim} components "
                             f"in its last axis")
    for key in names - {"beta"}:
        low = np.min(params[key])
        if key == "gamma" and low < 0:
            raise ValueError("coefficient 'gamma' must be nonnegative")
        if key != "gamma" and low <= 0:
            raise ValueError(f"coefficient {key!r} must be positive")
    return params


def _ncomp(family, dim):
    return 1 if family in ("h1", "l2") else dim


def _slot(spec, p, dim, mode):
    name, family, degree, continuity, *zero = spec
    degree += p
    if mode == "guaranteed" and family == "hcurl" and continuity != "broken":
        family, degree = "vec", degree + (continuity == "skeleton")
    return Slot(name, family, degree, continuity, _ncomp(family, dim),
                bool(zero and zero[0]))


def _coef(text):
    const, mul, div = 1.0, [], []
    for word in text.split():
        if word.startswith("-"):
            const, word = -const, word[1:]
        if word == "i":
            const = const * 1j
        elif word.startswith("1/"):
            div.append(word[2:])
        elif word != "1":
            mul.append(word)
    return const, tuple(mul), tuple(div)


def _operand(text):
    words = text.split()
    return words[-1], "der" if len(words) == 2 else "val"


# the test traces of the catalog's pairings, by their prefix, as
# reference.trace_factor kinds
_TRACE_KINDS = {"": "value", "n.": "normal", "nx": "rotated"}


def _trace(text):
    for prefix in ("n.", "nx "):
        if text.startswith(prefix):
            return text[len(prefix):], prefix.strip()
    return text, ""


def _exact(text):
    return (-1.0, text[1:]) if text.startswith("-") else (1.0, text)


def _gram(test, trial, volume, graph):
    """The test norm's terms: the test slots' values, and their
    derivatives where deriv_in_norm is set (natural norm) or, per trial
    slot, the pairwise products of the adjoint row, its volume terms
    with conjugated coefficients by test slot (graph norm)."""
    one = _coef("1")
    gram = [(one, (s.name, kind), one, (s.name, kind)) for s in test
            for kind in ("val", "der")[:1 + (s.deriv_in_norm and not graph)]]
    for s in trial if graph else ():
        row = {}
        for (const, mul, div), x, _, y in volume:
            if x == (s.name, "val"):
                row.setdefault(y[0], []).append(
                    ((const.conjugate(), mul, div), y))
        for a in row.values():
            for b in row.values():
                gram += [(cb, yb, ca, ya) for cb, yb in b for ca, ya in a]
    return tuple(gram)


# -- form evaluation on a group of cells --------------------------------
#
# The context object (the system module's _CellGroup) stands for
# ctx.ncells = K cells of one mesh, evaluated together.  On these affine
# cells every table the forms read is a reference table times a
# per-cell factor: a kernel contracts the factors against reference
# tensors (reference.reference_tensor) instead of summing over
# quadrature points on every cell.  The context provides operands as
# (reference operand, factor) terms, ctx.operand((name, 'val' | 'der'))
# and ctx.facet(name, lf) on local facet lf, where a factor is (K, r, c),
# or (r, c) where the same on every cell; an interface slot's columns
# from its space, ctx.interface(name): per local facet the term of the
# traces, with the outward normal, of the functions with a trace there
# and their positions among the slot's columns, and the number of
# columns;
# the weight scales ctx.absdet (K,) and
# ctx.facet_scale(lf) (K,); outward normals ctx.normal(lf) (K, dim);
# quadrature points ctx.points (K, nq, dim) for the load; the test
# layout ctx.ntest_local and ctx.test_offset(name); and coefficients
# ctx.coef(key), a constant or a per-cell array shaped to broadcast
# against the factors ((K, 1, 1), or (K, 1, dim) for beta).  Every
# kernel returns a stack with the cells on its first axis.


def _coef_value(ctx, coef):
    """The value of a parsed coefficient, None where it is zero."""
    const, mul, div = coef
    for key in mul:
        const = const * ctx.coef(key)
    for key in div:
        const = const / ctx.coef(key)
    if isinstance(const, np.ndarray):
        return const if const.any() else None
    return const if const != 0 else None


def _scaled(c, tab):
    """c times a (..., r, ncomp) factor; a vector c multiplies a scalar
    factor and is dotted with a vector one."""
    if np.ndim(c) == 0 or np.shape(c)[-1] == 1:
        return c * tab
    if tab.shape[-1] == 1:
        return tab * c
    return (tab * c).sum(axis=-1, keepdims=True)


def _fold(form, coef, x, y, d=1.0):
    """A matrix coefficient times the phase of slot x and conj(d) over
    that of test slot y, in its constant: real (``_slot_phases``)."""
    c = coef[0] * form.phases[x] * np.conj(d * form.phases[y])
    return (float(c.real),) + coef[1:]


def _volume(form, ctx, terms, cols, shape):
    """The real (K,) + shape stack of the phased terms (cx, x, cy, y),
    zero ones left out: rows at the test offset of y's slot, columns at
    cols(x's slot).  Consecutive terms of one block are summed before
    they enter the stack, so a block that several rows add to rounds row
    by row."""
    parts = [(_coef_value(ctx, _fold(form, cx, x[0], y[0], cy[0])), x,
              _coef_value(ctx, (1.0,) + cy[1:]), y) for cx, x, cy, y in terms]
    parts = [t for t in parts if t[0] is not None and t[2] is not None]
    out = np.zeros((ctx.ncells,) + shape)
    for (test, trial), block in groupby(parts, lambda t: (t[3][0], t[1][0])):
        part = _contract(((_term(ctx, cx, x), _term(ctx, cy, y))
                          for cx, x, cy, y in block), ctx.absdet)
        r0, c0 = ctx.test_offset(test), cols(trial)
        out[:, r0:r0 + part.shape[1], c0:c0 + part.shape[2]] += part
    return out


def _term(ctx, c, operand):
    ref, F = ctx.operand(operand)
    return ref, _scaled(c, F)


def y_gram(form, ctx):
    """Phased SPD Grams D_y^H G D_y of the Y inner product."""
    n = ctx.ntest_local
    G = _volume(form, ctx, form.gram, ctx.test_offset, (n, n))
    return 0.5 * (G + np.swapaxes(G, -1, -2))


def b0_block(form, ctx):
    """Phased volume part of b: rows test dofs, cols field dofs."""
    cols, at = {}, 0
    for s in form.trial_slots:
        cols[s.name] = at
        at += ctx.operand((s.name, "val"))[0].basis.nfuncs
    return _volume(form, ctx, form.volume, cols.get, (ctx.ntest_local, at))


def bhat_block(form, ctx):
    """Interface part of the mixed form, phased as b0_block's: rows test
    dofs, cols interface dofs (local layout per cell).  Orientation
    factors are applied by the caller through the dof maps."""
    cols, at = [], 0
    for pr in form.pairings:
        # per local facet: the traces of the slot's functions with a
        # trace there, as a (reference operand, factor) term, and their
        # columns
        xs, ncols = ctx.interface(pr.slot)
        cols.append((pr, _coef_value(ctx, _fold(form, pr.coef, pr.slot,
                                                pr.test)),
                     [(x, at + c) for x, c in xs]))
        at += ncols
    blk = np.zeros((ctx.ncells, ctx.ntest_local, at))
    for lf in range(form.dim + 1):
        area, n = ctx.facet_scale(lf), ctx.normal(lf)
        for pr, c, xs in cols:
            if c is None:
                continue
            yr, F = ctx.facet(pr.test, lf)
            F = F @ trace_factor(_TRACE_KINDS[pr.trace], n)
            (xr, Fx), c0 = xs[lf]
            part = _contract([((xr, _scaled(c, Fx)), (yr, F))], area)
            r0 = ctx.test_offset(pr.test)
            blk[:, r0:r0 + part.shape[1], c0] += part
    return blk


def load_vector(form, ctx, case):
    """Phased test-slot load functionals D_y^H l of a case, (K, ntest).

    The case data vary over the cell, so the load is a quadrature: the
    data at the points, pulled back by the test operand's factor, are
    summed against its reference table."""
    l = np.zeros((ctx.ncells, ctx.ntest_local))
    for ld in form.loads if case is not None else ():
        c = _coef_value(ctx, (ld.coef[0] * np.conj(form.phases[ld.test[0]]),)
                        + ld.coef[1:])
        if c is None:
            continue
        x = ctx.points
        K, nq, dim = x.shape
        f = np.asarray(case.fields[ld.field](x.reshape(-1, dim)))
        bad = np.count_nonzero(~np.isfinite(f.reshape(K * nq, -1)).all(1))
        if bad:
            raise ValueError(
                f"case {case.name!r}: field {ld.field!r} is not finite at "
                f"{bad} of the {K * nq} quadrature points of {K} cells")
        m = _moments(c * f.reshape(K, nq, -1), ctx.operand(ld.test),
                     ctx.absdet)
        l = l.astype(np.result_type(l, m), copy=False)
        at = ctx.test_offset(ld.test[0])
        l[:, at:at + m.shape[1]] += m
    return l


# -- exact fields ----------------------------------------------------------

# The derivative of each family (reference.deriv_factor pushes it).
_DERIVATIVE = {"h1": "grad", "l2": "grad", "hdiv": "div", "hcurl": "curl",
               "vec": "curl"}


def exact_names(slot):
    """The case fields of a field slot's exact value and of its exact
    family derivative, named by the family's derivative ("grad_u",
    "div_sigma", "curl_E")."""
    return slot.name, f"{_DERIVATIVE[slot.family]}_{slot.name}"


def measured_names(slot):
    """The case fields that measuring a field slot's error reads: its
    exact value and, for a conforming slot, its exact family
    derivative."""
    return exact_names(slot)[:1 + (slot.continuity == "conforming")]


def exact_interface(form, case, slot_name):
    """(sign, field) of an interface slot: the case's exact volume field
    whose trace, times sign, the slot carries; the slot's space takes
    the trace of its kind."""
    for pr in form.pairings:
        if pr.slot == slot_name:
            sign, name = pr.exact
            return sign, case.fields[name]
    raise KeyError(slot_name)


def check_case(form, case):
    """Raise a ValueError, naming the case, when it does not fit the
    formulation: its dimension differs from the form's (and so the
    mesh's), or it lacks a field that the loads read or, when it has an
    exact solution, one that measuring the error reads: the value of
    every field slot, the family derivative of every conforming one and
    the exact trace of every interface slot."""
    if case.dim != form.dim:
        raise ValueError(
            f"case {case.name!r} is {case.dim}-dimensional, but "
            f"{form.id!r} is solved on a {form.dim}-dimensional mesh")
    names = [ld.field for ld in form.loads]
    if case.has_exact:
        names += [name for s in form.trial_slots
                  for name in measured_names(s)]
        names += [pr.exact[1] for pr in form.pairings]
    for name in names:
        if name not in case.fields:
            raise ValueError(f"case {case.name!r} has no field {name!r}, "
                             f"which {form.id!r} reads")


# -- manufactured cases -------------------------------------------------


class ManufacturedCase:
    """Named exact-solution data set.

    fields maps names to vectorized callables of the physical points.
    """

    def __init__(self, name, dim, params, fields, has_exact=True):
        self.name = name
        self.dim = dim
        self.params = params
        self.fields = fields
        self.has_exact = has_exact


def _sine_2d(name, beta, gamma):
    """u = sin(pi x) sin(pi y) for -div(grad u + u beta) + gamma u = f2,
    with a = 1 and div beta = 0."""
    beta = np.asarray(beta, dtype=float)

    def u(x):
        return np.sin(np.pi * x[:, 0]) * np.sin(np.pi * x[:, 1])

    def grad_u(x):
        s1, c1 = np.sin(np.pi * x[:, 0]), np.cos(np.pi * x[:, 0])
        s2, c2 = np.sin(np.pi * x[:, 1]), np.cos(np.pi * x[:, 1])
        return np.pi * np.stack([c1 * s2, s1 * c2], axis=1)

    def sigma(x):
        return grad_u(x) + u(x)[:, None] * beta

    def f2(x):
        ux = u(x)
        return (2.0 * np.pi ** 2 * ux
                - np.einsum("pc,c->p", grad_u(x), beta) + gamma * ux)

    fields = {"u": u, "grad_u": grad_u, "sigma": sigma, "f2": f2,
              "div_sigma": lambda x: gamma * u(x) - f2(x)}
    return ManufacturedCase(name, 2,
                            {"a": 1.0, "beta": beta, "gamma": gamma}, fields)


def _maxwell_sine_3d():
    om = eps = mu = 1.0

    def E(x):
        s = np.sin(np.pi * x)
        out = np.zeros((len(x), 3), dtype=complex)
        out[:, 0] = s[:, 0] * s[:, 1] * s[:, 2]
        return out

    def curlE(x):
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        out = np.zeros((len(x), 3), dtype=complex)
        out[:, 1] = np.pi * s[:, 0] * s[:, 1] * c[:, 2]
        out[:, 2] = -np.pi * s[:, 0] * c[:, 1] * s[:, 2]
        return out

    def H(x):
        return curlE(x) / (1j * om * mu)

    def curlH(x):
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        cc = np.zeros((len(x), 3))
        cc[:, 0] = 2.0 * np.pi ** 2 * s[:, 0] * s[:, 1] * s[:, 2]
        cc[:, 1] = np.pi ** 2 * c[:, 0] * c[:, 1] * s[:, 2]
        cc[:, 2] = np.pi ** 2 * c[:, 0] * s[:, 1] * c[:, 2]
        return cc / (1j * om * mu)

    def J(x):
        return 1j * om * eps * E(x) + curlH(x)

    fields = {"E": E, "curl_E": curlE, "H": H, "curl_H": curlH, "J": J}
    return ManufacturedCase("maxwell_sine_3d", 3,
                            {"eps": eps, "mu": mu, "omega": om}, fields)


def _poisson_lshape_singular():
    def f2(x):
        return np.ones(len(x))

    return ManufacturedCase("poisson_lshape_singular", 2,
                            {"a": 1.0, "beta": np.zeros(2), "gamma": 0.0},
                            {"f2": f2}, has_exact=False)


_CASES = {
    "poisson_sine_2d": lambda: _sine_2d("poisson_sine_2d", (0.0, 0.0), 0.0),
    "dcr_sine_2d": lambda: _sine_2d("dcr_sine_2d", (0.3, -0.2), 0.5),
    "maxwell_sine_3d": _maxwell_sine_3d,
    "poisson_lshape_singular": _poisson_lshape_singular,
}


def manufactured_case(name):
    if name not in _CASES:
        raise ValueError(f"unknown manufactured case {name!r}")
    return _CASES[name]()
