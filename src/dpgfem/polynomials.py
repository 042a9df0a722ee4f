"""Exact polynomial calculus on simplices, on coefficient arrays.

A family of m polynomial fields with ncomp components in dim variables
is one ``Polys``: a coefficient tensor (m, ncomp, nterms) over an
exponent table (nterms, dim) that holds, in lexicographic order, the
exponents some coefficient uses.  Gradients, curls, divergences, the
products with x and the 90-degree rotation are index maps on the term
axis (integer exponent arithmetic), so derivatives are formed exactly
before anything is evaluated at points; every coefficient of the
generators and of their derivatives is an integer.  The module also
gives the dimensions of the spaces and of their traces on a tetrahedron.
"""

from __future__ import annotations

import numpy as np

# (a, b) of each component of a 3D curl or cross product: u_a v_b - u_b v_a
_PAIRS = ((1, 2), (2, 0), (0, 1))


class Polys:
    """m polynomial fields: ``coeffs`` (m, ncomp, nterms) over the
    ``exponents`` (nterms, dim)."""

    def __init__(self, exponents, coeffs):
        self.exponents = exponents
        self.coeffs = coeffs

    @property
    def dim(self):
        return self.exponents.shape[1]

    @property
    def ncomp(self):
        return self.coeffs.shape[1]

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
        """Values with shape (m, npts, ncomp), as one 2-D matrix product
        of the term coefficients with the monomial table; given
        ``coeffs`` (m', ncomp, nterms), the values of the fields with
        those term coefficients instead, such as fixed combinations of
        the fields folded into their coefficients once."""
        c = self.coeffs if coeffs is None else coeffs
        nf, nc, nt = c.shape
        out = c.reshape(nf * nc, nt) @ self.monomials(points).T
        return np.ascontiguousarray(out.reshape(nf, nc, -1).transpose(0, 2, 1))

    def _terms(self):
        """The nonzero terms: rows, components, exponents, coefficients."""
        flat = np.flatnonzero(self.coeffs != 0)
        rows, comps, t = np.unravel_index(flat, self.coeffs.shape)
        return rows, comps, self.exponents[t], self.coeffs.ravel()[flat]

    def _map(self, ncomp, terms):
        """The fields sum over terms (out, comp, op, axis, sign) of sign
        times component comp, differentiated along axis (op 'd'),
        multiplied by x_axis (op 'x') or unchanged (op None), placed in
        component out of ncomp."""
        rows, comps, e, v = self._terms()
        unit = np.eye(self.dim, dtype=e.dtype)
        parts = []
        for out, comp, op, axis, sign in terms:
            if op == "d":
                k = (comps == comp) & (e[:, axis] > 0)
                part = (e[k] - unit[axis], sign * v[k] * e[k, axis])
            else:
                k = comps == comp
                part = (e[k] + unit[axis] if op == "x" else e[k], sign * v[k])
            parts.append((rows[k], np.full(k.sum(), out)) + part)
        return _collect(len(self), ncomp, *map(np.concatenate, zip(*parts)))

    def grad(self):
        """Gradients of scalar fields, dim components."""
        return self._map(self.dim, [(a, 0, "d", a, 1.0)
                                    for a in range(self.dim)])

    def div(self):
        return self._map(1, [(0, a, "d", a, 1.0) for a in range(self.dim)])

    def curl(self):
        """The curl in 3D, the scalar rot d(v1)/dx - d(v0)/dy in 2D."""
        if self.dim == 2:
            return self._map(1, [(0, 1, "d", 0, 1.0), (0, 0, "d", 1, -1.0)])
        return self._map(3, [t for i, (a, b) in enumerate(_PAIRS) for t in
                             ((i, b, "d", a, 1.0), (i, a, "d", b, -1.0))])

    def times_x(self):
        """x times scalar fields, dim components."""
        return self._map(self.dim, [(a, 0, "x", a, 1.0)
                                    for a in range(self.dim)])

    def cross_x(self):
        """x cross 3D vector fields."""
        return self._map(3, [t for i, (a, b) in enumerate(_PAIRS) for t in
                             ((i, b, "x", a, 1.0), (i, a, "x", b, -1.0))])

    def rot90(self):
        """2D vector fields rotated by 90 degrees: (a, b) -> (-b, a)."""
        return self._map(2, [(0, 1, None, 0, -1.0), (1, 0, None, 0, 1.0)])


def _collect(m, ncomp, rows, comps, exps, coefs):
    """m fields of ncomp components from terms given by their rows,
    components, exponents (n, dim) and coefficients, summed where they
    meet, over the exponents left with a nonzero coefficient."""
    # exponents below base as base-digit integers, ordered as the tuples
    base = exps.max(initial=0) + 1
    powers = base ** np.arange(exps.shape[1] - 1, -1, -1)
    size = base ** exps.shape[1]
    slots, where = np.unique((rows * ncomp + comps) * size + exps @ powers,
                             return_inverse=True)
    sums = np.bincount(where, weights=coefs, minlength=len(slots))
    live = sums != 0
    field, code = np.divmod(slots[live], size)
    codes, column = np.unique(code, return_inverse=True)
    out = np.zeros((m * ncomp, len(codes)))
    out[field, column] = sums[live]
    return Polys(codes[:, None] // powers % base, out.reshape(m, ncomp, -1))


def _stack(families):
    """The fields of several families, in order, as one family."""
    ends = np.cumsum([0] + [len(f) for f in families])
    terms = [f._terms() for f in families]
    rows = np.concatenate([t[0] + a for t, a in zip(terms, ends)])
    rest = (np.concatenate(parts) for parts in list(zip(*terms))[1:])
    return _collect(ends[-1], families[0].ncomp, rows, *rest)


def monomials(dim, degree, ncomp=1):
    """The monomials of total degree at most ``degree``, graded: by degree,
    then in lexicographic order of their exponents; with ncomp > 1 each
    times every unit vector, the component running fastest."""
    grid = np.indices((degree + 1,) * dim).reshape(dim, -1).T
    exps = grid[grid.sum(axis=1) <= degree]
    n = len(exps)
    graded = np.eye(n)[np.argsort(exps.sum(axis=1), kind="stable")]
    coeffs = graded[:, None, None, :] * np.eye(ncomp)[None, :, :, None]
    return Polys(exps, coeffs.reshape(n * ncomp, ncomp, n))


def _orders(monos):
    """The total degree of each field of a family of monomials."""
    return monos.exponents.sum(axis=1)[monos.coeffs.any(axis=1).argmax(axis=1)]


def family_generators(family, degree, dim):
    """The generators of a family as one family, graded by order, and the
    bounds of the order groups: the generators before a bound span the
    family of that lower order.

    Families: 'h1' and 'l2' (scalar P_degree), 'hdiv' (R_degree),
    'hcurl' (N_degree; dim 3 is the Nedelec first kind space, dim 2 the
    90-degree rotation of R_degree), 'vec' (full vector P_degree).
    The generating sets may be linearly dependent; callers are expected to
    orthonormalize with rank filtering.
    """
    if family not in ("h1", "l2", "hcurl", "hdiv", "vec"):
        raise ValueError(f"unknown family {family!r} (degree {degree})")
    first = 1 if family in ("hcurl", "hdiv") else 0
    if degree < first:
        raise ValueError(f"{family} needs degree >= {first}, got {degree}")
    if family == "hcurl" and dim not in (2, 3):
        raise ValueError("hcurl needs dim 2 or 3")
    if family in ("h1", "l2", "vec"):
        gens = monomials(dim, degree, dim if family == "vec" else 1)
        orders = _orders(gens)
    else:
        # order k + 1: the vector monomials of degree k, then x cross
        # them (3D hcurl) or x times the scalar ones
        vec = monomials(dim, degree - 1, dim)
        if family == "hcurl" and dim == 3:
            source, extra = vec, vec.cross_x()
        else:
            source = monomials(dim, degree - 1)
            extra = source.times_x()
        orders = np.concatenate([_orders(vec), _orders(source)])
        perm = np.argsort(orders, kind="stable")
        gens = _stack([vec, extra])
        gens = Polys(gens.exponents, gens.coeffs[perm])
        if family == "hcurl" and dim == 2:
            gens = gens.rot90()
    return gens, np.concatenate([[0], np.cumsum(np.bincount(orders))])


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


def trace_dimension(family, q):
    """Dimension of the surface trace of a degree-q family on a
    tetrahedron: the values of h1 = P_q, the normal components of hdiv
    (P_{q-1} on each face), the tangential components of hcurl and of
    vec = P_q^3; each is the span less the fields whose trace vanishes."""
    if family == "h1":
        interior = space_dimension("h1", q - 4, 3) if q >= 4 else 0
        return space_dimension("h1", q, 3) - interior
    if family == "hdiv":
        return 2 * q * (q + 1)
    if family == "hcurl":
        return space_dimension("hcurl", q, 3) - q * (q - 1) * (q - 2) // 2
    if family == "vec":
        kernel = max(q - 2, 0) * (q - 1) * (q + 1) // 2
        return space_dimension("vec", q, 3) - kernel
    raise ValueError(f"no trace dimension for family {family!r}")
