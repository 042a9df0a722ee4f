"""Exact monomial calculus on simplices.

Polynomial vector fields are stored as sparse collections of monomial terms
so that gradients, curls and divergences can be formed exactly (integer
exponent arithmetic) before anything is evaluated at quadrature points.
"""

from __future__ import annotations

import itertools

import numpy as np


class Poly:
    """A polynomial field with ``ncomp`` components in ``dim`` variables.

    Terms are kept in a dict mapping ``(exponents, component)`` to a float
    coefficient.  Exponents are tuples of length ``dim``.
    """

    __slots__ = ("dim", "ncomp", "terms")

    def __init__(self, dim, ncomp=1, terms=None):
        self.dim = dim
        self.ncomp = ncomp
        self.terms = dict(terms) if terms else {}

    @staticmethod
    def monomial(dim, alpha, comp=0, coef=1.0, ncomp=1):
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != dim:
            raise ValueError("exponent length does not match dim")
        return Poly(dim, ncomp, {(alpha, comp): float(coef)})

    def _add_term(self, alpha, comp, coef):
        key = (alpha, comp)
        val = self.terms.get(key, 0.0) + coef
        if val == 0.0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = val

    def __add__(self, other):
        if other.dim != self.dim or other.ncomp != self.ncomp:
            raise ValueError("incompatible polynomials")
        out = Poly(self.dim, self.ncomp, self.terms)
        for (alpha, comp), coef in other.terms.items():
            out._add_term(alpha, comp, coef)
        return out

    def __mul__(self, scalar):
        scalar = float(scalar)
        return Poly(
            self.dim,
            self.ncomp,
            {key: coef * scalar for key, coef in self.terms.items()},
        )

    __rmul__ = __mul__

    def deriv(self, axis):
        """Partial derivative of every component along ``axis``."""
        out = Poly(self.dim, self.ncomp)
        for (alpha, comp), coef in self.terms.items():
            if alpha[axis] == 0:
                continue
            beta = list(alpha)
            beta[axis] -= 1
            out._add_term(tuple(beta), comp, coef * alpha[axis])
        return out

    def component(self, comp):
        out = Poly(self.dim, 1)
        for (alpha, c), coef in self.terms.items():
            if c == comp:
                out._add_term(alpha, 0, coef)
        return out

    def grad(self):
        """Gradient of a scalar, returned as a dim-component field."""
        if self.ncomp != 1:
            raise ValueError("grad needs a scalar")
        out = Poly(self.dim, self.dim)
        for axis in range(self.dim):
            d = self.deriv(axis)
            for (alpha, _), coef in d.terms.items():
                out._add_term(alpha, axis, coef)
        return out

    def div(self):
        if self.ncomp != self.dim:
            raise ValueError("div needs a dim-component field")
        out = Poly(self.dim, 1)
        for axis in range(self.dim):
            d = self.component(axis).deriv(axis)
            for (alpha, _), coef in d.terms.items():
                out._add_term(alpha, 0, coef)
        return out

    def curl3d(self):
        if self.dim != 3 or self.ncomp != 3:
            raise ValueError("curl3d needs a 3D vector field")
        out = Poly(3, 3)
        pairs = [(1, 2), (2, 0), (0, 1)]
        for comp, (a, b) in enumerate(pairs):
            d = self.component(b).deriv(a) + (-1.0) * self.component(a).deriv(b)
            for (alpha, _), coef in d.terms.items():
                out._add_term(alpha, comp, coef)
        return out

    def rot2d(self):
        """Scalar curl of a 2D vector field: d(v1)/dx - d(v0)/dy."""
        if self.dim != 2 or self.ncomp != 2:
            raise ValueError("rot2d needs a 2D vector field")
        d = self.component(1).deriv(0) + (-1.0) * self.component(0).deriv(1)
        return d

    def cross_x(self):
        """x cross self for a 3D vector field."""
        if self.dim != 3 or self.ncomp != 3:
            raise ValueError("cross_x needs a 3D vector field")
        out = Poly(3, 3)
        e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        # (x cross F)_i = eps_ijk x_j F_k
        eps = {(0, 1, 2): 1, (1, 2, 0): 1, (2, 0, 1): 1,
               (0, 2, 1): -1, (2, 1, 0): -1, (1, 0, 2): -1}
        for (alpha, k), coef in self.terms.items():
            for i in range(3):
                for j in range(3):
                    s = eps.get((i, j, k))
                    if s is None:
                        continue
                    beta = tuple(a + b for a, b in zip(alpha, e[j]))
                    out._add_term(beta, i, s * coef)
        return out

    def times_x(self):
        """x * self for a scalar, producing a dim-component field."""
        if self.ncomp != 1:
            raise ValueError("times_x needs a scalar")
        out = Poly(self.dim, self.dim)
        e = np.eye(self.dim, dtype=int)
        for (alpha, _), coef in self.terms.items():
            for i in range(self.dim):
                beta = tuple(a + b for a, b in zip(alpha, e[i]))
                out._add_term(beta, i, coef)
        return out

    def degree(self):
        if not self.terms:
            return 0
        return max(sum(alpha) for (alpha, _) in self.terms)

    def __call__(self, points):
        points = np.asarray(points, dtype=float)
        vals = np.zeros((points.shape[0], self.ncomp))
        for (alpha, comp), coef in self.terms.items():
            term = np.ones(points.shape[0])
            for axis, a in enumerate(alpha):
                if a:
                    term = term * points[:, axis] ** a
            vals[:, comp] += coef * term
        if self.ncomp == 1:
            return vals[:, 0]
        return vals


class CompiledPolys:
    """Batch evaluator for a list of Poly sharing dim and ncomp."""

    def __init__(self, polys):
        if not polys:
            raise ValueError("empty poly list")
        self.dim = polys[0].dim
        self.ncomp = polys[0].ncomp
        exps = sorted({alpha for poly in polys for (alpha, _) in poly.terms})
        index = {alpha: t for t, alpha in enumerate(exps)}
        self.exponents = np.array(exps, dtype=int).reshape(len(exps), self.dim)
        self.coeffs = np.zeros((len(polys), self.ncomp, len(exps)))
        for f, poly in enumerate(polys):
            if poly.dim != self.dim or poly.ncomp != self.ncomp:
                raise ValueError("mixed poly shapes")
            for (alpha, comp), coef in poly.terms.items():
                self.coeffs[f, comp, index[alpha]] = coef

    def __len__(self):
        return self.coeffs.shape[0]

    def monomials(self, points):
        """The monomials of all terms at the points, (npts, nterms): per
        axis one table of the powers x ** k, k up to the largest exponent,
        whose columns are gathered by exponent and multiplied in axis
        order."""
        points = np.asarray(points, dtype=float)
        mono = np.ones((points.shape[0], self.exponents.shape[0]))
        for axis, exps in enumerate(self.exponents.T):
            powers = points[:, axis, None] ** np.arange(exps.max(initial=0) + 1)
            mono *= np.take(powers, exps, axis=1)
        return mono

    def eval(self, points, coeffs=None):
        """Values with shape (nfunc, npts, ncomp), as one 2-D matrix
        product of the term coefficients with the monomial table; given
        ``coeffs`` (m, ncomp, nterms), the values of the fields with those
        term coefficients instead, such as fixed combinations of the
        polynomials folded into their coefficients once."""
        c = self.coeffs if coeffs is None else coeffs
        nf, nc, nt = c.shape
        out = c.reshape(nf * nc, nt) @ self.monomials(points).T
        return np.ascontiguousarray(out.reshape(nf, nc, -1).transpose(0, 2, 1))


def scalar_monomials(dim, degree):
    """Homogeneous scalar monomials of the given total degree, as Polys."""
    out = []
    for alpha in itertools.combinations_with_replacement(range(dim), degree):
        exps = [0] * dim
        for a in alpha:
            exps[a] += 1
        out.append(Poly.monomial(dim, exps))
    # fixed deterministic order: lexicographic on exponent tuples
    out.sort(key=lambda q: next(iter(q.terms))[0])
    return out


def vector_monomials(dim, degree):
    """Homogeneous vector monomials (one nonzero component each)."""
    out = []
    for mono in scalar_monomials(dim, degree):
        alpha = next(iter(mono.terms))[0]
        for comp in range(dim):
            out.append(Poly.monomial(dim, alpha, comp=comp, ncomp=dim))
    return out


def family_generator_groups(family, degree, dim):
    """Generators grouped by order so that prefixes span lower orders.

    Families: 'h1' and 'l2' (scalar P_degree), 'hdiv' (R_degree),
    'hcurl' (N_degree; dim 3 is the Nedelec first kind space, dim 2 the
    90-degree rotation of R_degree), 'vec' (full vector P_degree).
    The generating sets may be linearly dependent; callers are expected to
    orthonormalize with rank filtering.
    """
    groups = []
    if family in ("h1", "l2"):
        for k in range(degree + 1):
            groups.append(scalar_monomials(dim, k))
    elif family == "vec":
        for k in range(degree + 1):
            groups.append(vector_monomials(dim, k))
    elif family == "hdiv":
        if degree < 1:
            raise ValueError("hdiv needs degree >= 1")
        for k in range(1, degree + 1):
            group = vector_monomials(dim, k - 1)
            group.extend(m.times_x() for m in scalar_monomials(dim, k - 1))
            groups.append(group)
    elif family == "hcurl":
        if degree < 1:
            raise ValueError("hcurl needs degree >= 1")
        if dim == 3:
            for k in range(1, degree + 1):
                group = vector_monomials(3, k - 1)
                group.extend(m.cross_x() for m in vector_monomials(3, k - 1))
                groups.append(group)
        elif dim == 2:
            rot = lambda v: _rot90(v)
            for k in range(1, degree + 1):
                group = [rot(m) for m in vector_monomials(2, k - 1)]
                group.extend(rot(m.times_x()) for m in scalar_monomials(2, k - 1))
                groups.append(group)
        else:
            raise ValueError("hcurl needs dim 2 or 3")
    else:
        raise ValueError(f"unknown family {family!r}")
    return groups


def _rot90(v):
    """Rotate a 2D vector field by 90 degrees: (a, b) -> (-b, a)."""
    out = Poly(2, 2)
    for (alpha, comp), coef in v.terms.items():
        if comp == 0:
            out._add_term(alpha, 1, coef)
        else:
            out._add_term(alpha, 0, -coef)
    return out


def space_dimension(family, degree, dim):
    """Exact dimension of the polynomial space a family spans."""
    p = degree
    if family in ("h1", "l2"):
        if dim == 1:
            return p + 1
        if dim == 2:
            return (p + 1) * (p + 2) // 2
        return (p + 1) * (p + 2) * (p + 3) // 6
    if family == "vec":
        return dim * space_dimension("h1", p, dim)
    if family == "hdiv":
        if dim == 2:
            return p * (p + 2)
        return p * (p + 1) * (p + 3) // 2
    if family == "hcurl":
        if dim == 2:
            return p * (p + 2)
        return p * (p + 2) * (p + 3) // 2
    raise ValueError(f"unknown family {family!r}")
