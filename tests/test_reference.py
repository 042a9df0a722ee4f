"""Reference bases: dimensions, exact sequence, traces and pullbacks."""

import numpy as np
import pytest

from dpgfem import reference
from dpgfem.quadrature import simplex_rule
from dpgfem.reference import (
    ModalBasis,
    conforming_basis,
    exact_sequence_check,
    facet_outward_normal,
    facet_points,
    facet_trace_matrix,
    modal_basis,
    push_derivs,
    push_values,
    reference_basis,
)
from dpgfem.simplex import local_facets


@pytest.mark.parametrize("family,p,dim,expected", [
    ("h1", 2, 3, 10),
    ("hcurl", 1, 3, 6),
    ("hdiv", 1, 3, 4),
    ("h1", 3, 2, 10),
    ("hcurl", 2, 2, 8),
    ("l2", 1, 3, 4),
])
def test_basis_dimensions(family, p, dim, expected):
    basis = reference_basis(family, p, dim)
    assert basis.nfuncs == expected


@pytest.mark.parametrize("family,dim", [("h1", 2), ("h1", 3), ("hcurl", 3),
                                        ("hdiv", 3), ("hdiv", 2)])
def test_gram_positive_definite(family, dim):
    p = 2
    basis = reference_basis(family, p, dim)
    rule = simplex_rule(dim, 2 * p)
    vals = basis.values(rule.points)
    G = np.einsum("ipk,jpk,p->ij", vals, vals, rule.weights)
    lam = np.linalg.eigvalsh(G)
    assert lam.min() > 1e-12


def test_invalid_degrees_rejected():
    with pytest.raises(ValueError):
        reference_basis("hcurl", 0, 3)
    with pytest.raises(ValueError):
        reference_basis("h1", -1, 2)
    with pytest.raises(ValueError):
        reference_basis("unknown", 1, 2)


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_exact_sequence_residuals(p, dim):
    res = exact_sequence_check(p, dim)
    for name, val in res.items():
        assert val < 1e-11, f"{name} residual {val:.2e}"


def test_exact_sequence_rejects_p0():
    with pytest.raises(ValueError):
        exact_sequence_check(0, 3)


@pytest.mark.parametrize("family,p,dim,tdim", [
    ("hdiv", 1, 3, 1),
    ("h1", 2, 2, 3),
    ("h1", 1, 3, 3),
    ("hcurl", 1, 3, 3),
])
def test_trace_space_dimensions(family, p, dim, tdim):
    lf = local_facets(dim)[0]
    T, n = facet_trace_matrix(family, p, dim, lf)
    assert n == tdim
    assert np.linalg.matrix_rank(T, tol=1e-9) == tdim


def test_l2_has_no_trace():
    with pytest.raises(ValueError):
        facet_trace_matrix("l2", 1, 3, local_facets(3)[0])


def test_trace_of_vanishing_function_is_zero():
    """A function that is zero on the facet maps to a zero trace row."""
    dim, p = 3, 2
    lf = local_facets(dim)[0]
    basis = reference_basis("h1", p, dim)
    T, _ = facet_trace_matrix("h1", p, dim, lf)
    rule = simplex_rule(dim - 1, 2 * p + 2)
    pts = facet_points(dim, lf, rule.points)
    vals = basis.values(pts)[:, :, 0]
    # find a combination vanishing on the facet via the nullspace of the
    # point evaluations, then check the trace matrix annihilates it
    _, sv, Vt = np.linalg.svd(vals.T)
    null = Vt[np.sum(sv > 1e-10):]
    assert null.shape[0] > 0
    for c in null:
        assert np.linalg.norm(T @ c) < 1e-10


@pytest.mark.parametrize("family", ["h1", "hcurl", "hdiv", "l2"])
def test_pullback_preserves_integration_identities(family, rng):
    """Divergence-theorem style checks tie values, derivatives and facet
    frames together on a random affine cell."""
    dim = 3
    p = 2
    if family == "l2":
        pytest.skip("no derivative identity for l2")
    basis = reference_basis(family, p, dim)
    J = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    while np.linalg.det(J) < 0.2:
        J = np.eye(dim) + 0.3 * rng.standard_normal((dim, dim))
    Jinv = np.linalg.inv(J)
    det = np.linalg.det(J)

    vol = simplex_rule(dim, 2 * p + 2)
    pvals = push_values(family, basis.values(vol.points), J, Jinv, det)
    pders = push_derivs(family, basis.derivs(vol.points), J, Jinv, det)
    wvol = vol.weights * abs(det)

    face = simplex_rule(dim - 1, 2 * p + 2)

    def facet_frame(lf):
        """Physical outward unit normal and quadrature weights of one
        facet, from the composed parametrization J A of the unit
        (dim-1)-simplex."""
        from dpgfem.simplex import facet_parametrization
        A, _ = facet_parametrization(dim, lf)
        M = J @ A
        cr = np.cross(M[:, 0], M[:, 1])
        area_fac = np.linalg.norm(cr)
        n = cr / area_fac
        if n @ (Jinv.T @ facet_outward_normal(dim, lf)) < 0:
            n = -n
        return n, face.weights * area_fac

    surf = np.zeros(basis.nfuncs)
    volint = np.zeros(basis.nfuncs)
    if family == "hdiv":
        # int_K div s = sum_f int_f s.n
        volint = np.einsum("fpk,p->f", pders, wvol)
        for lf in local_facets(dim):
            n, wf = facet_frame(lf)
            pts = facet_points(dim, lf, face.points)
            fvals = push_values(family, basis.values(pts), J, Jinv, det)
            surf += np.einsum("fpc,c,p->f", fvals, n, wf)
    elif family == "h1":
        # int_K grad u = sum_f int_f u n, componentwise; compare norms
        volint = np.linalg.norm(np.einsum("fpk,p->fk", pders, wvol), axis=1)
        acc = np.zeros((basis.nfuncs, dim))
        for lf in local_facets(dim):
            n, wf = facet_frame(lf)
            pts = facet_points(dim, lf, face.points)
            fvals = push_values(family, basis.values(pts), J, Jinv, det)
            acc += np.einsum("fpk,c,p->fc", fvals, n, wf)
        surf = np.linalg.norm(acc, axis=1)
    else:
        # int_K curl s = sum_f int_f n x s
        volint = np.linalg.norm(np.einsum("fpk,p->fk", pders, wvol), axis=1)
        acc = np.zeros((basis.nfuncs, dim))
        for lf in local_facets(dim):
            n, wf = facet_frame(lf)
            pts = facet_points(dim, lf, face.points)
            fvals = push_values(family, basis.values(pts), J, Jinv, det)
            nxs = np.cross(np.broadcast_to(n, fvals.shape), fvals)
            acc += np.einsum("fpk,p->fk", nxs, wf)
        surf = np.linalg.norm(acc, axis=1)
    ref = max(np.max(np.abs(volint)), 1.0)
    assert np.allclose(volint, surf, atol=1e-11 * ref)


def test_conforming_basis_entity_classification():
    basis = conforming_basis("h1", 2, 2)
    kinds = [k for k, _, _ in basis.entity_dofs]
    assert "vertex" in kinds and "edge" in kinds
    assert basis.nfuncs == 6
    b3 = conforming_basis("h1", 3, 3)
    assert b3.nfuncs == 20


def test_conforming_interior_functions_have_zero_trace():
    basis = conforming_basis("h1", 3, 2)
    interior = [i for i, (kind, _, _) in enumerate(basis.dof_entities())
                if kind == "interior"]
    assert interior
    rule = simplex_rule(1, 8)
    for lf in local_facets(2):
        pts = facet_points(2, lf, rule.points)
        vals = basis.values(pts)
        for i in interior:
            assert np.max(np.abs(vals[i])) < 1e-10


# Every basis that `dpgfem verify` and the form-table setups build.
MODAL_KEYS = [
    ("h1", 0, 3), ("h1", 2, 2), ("h1", 2, 3), ("h1", 3, 3), ("h1", 4, 2),
    ("h1", 4, 3), ("h1", 5, 3), ("h1", 7, 3), ("hcurl", 1, 2),
    ("hcurl", 1, 3), ("hcurl", 3, 2), ("hcurl", 3, 3), ("hcurl", 4, 2),
    ("hcurl", 4, 3), ("hcurl", 5, 3), ("hcurl", 7, 3), ("hdiv", 2, 2),
    ("hdiv", 3, 3), ("hdiv", 4, 2), ("hdiv", 4, 3), ("hdiv", 5, 3),
    ("hdiv", 7, 3), ("l2", 0, 2), ("l2", 0, 3), ("l2", 1, 1), ("l2", 1, 2),
    ("l2", 2, 2), ("l2", 3, 1), ("l2", 3, 2), ("l2", 4, 2), ("vec", 0, 2),
    ("vec", 0, 3), ("vec", 1, 2), ("vec", 1, 3), ("vec", 2, 2),
    ("vec", 2, 3), ("vec", 4, 2), ("vec", 4, 3),
]
CONFORMING_KEYS = [
    ("h1", 2, 2), ("h1", 2, 3), ("h1", 4, 2), ("h1", 4, 3), ("hcurl", 1, 3),
    ("hcurl", 3, 3), ("hcurl", 4, 3), ("hdiv", 2, 2), ("hdiv", 4, 2),
    ("hdiv", 4, 3), ("vec", 1, 3), ("vec", 2, 3),
]


def _relative_change(new, old):
    return np.abs(new - old).max() / np.abs(old).max()


@pytest.mark.parametrize("key", MODAL_KEYS)
def test_modal_basis_is_stable_to_rounding(key):
    """A relative change of 1e-14 in the generator Gram moves the modal
    coefficients by rounding only: no basis is picked inside a
    degenerate eigenspace.

    The degree-7 generators in 3D are monomials whose parts orthogonal
    to degree 6 are about 6e-6 of their norm, so any orthonormal basis
    of that group moves with the Gram by up to 6e-8 (measured: h1 2e-8,
    hcurl 6e-8, hdiv 1.4e-8); those keys get 1e-7.
    """
    basis = modal_basis(*key)
    M = basis._gram()
    E = np.random.default_rng(0).standard_normal(M.shape)
    W = basis._orthonormalize(M * (1 + 0.5e-14 * (E + E.T)))
    assert W.shape == basis.W.shape
    assert _relative_change(W, basis.W) <= (1e-8 if key[1] < 7 else 1e-7)


@pytest.mark.parametrize("key", CONFORMING_KEYS)
def test_conforming_basis_is_stable_to_rounding(key, monkeypatch):
    """A relative change of 1e-14 in the modal values moves the
    conforming coefficients by rounding only."""
    ref = conforming_basis(*key)
    rng = np.random.default_rng(0)
    values = ModalBasis.values

    def perturbed(self, points):
        vals = values(self, points)
        return vals * (1 + 1e-14 * rng.standard_normal(vals.shape))

    monkeypatch.setattr(ModalBasis, "values", perturbed)
    monkeypatch.setattr(reference, "_CONF_CACHE", {})
    got = conforming_basis(*key)
    assert got.entity_dofs == ref.entity_dofs
    assert _relative_change(got.coeffs, ref.coeffs) <= 1e-8
