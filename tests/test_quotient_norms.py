"""Characterization of the interface quotient norms and of opnorm.

Each interface slot is measured in the minimum-energy-extension norm of
its unbroken parent space; ``interface_quotient_gram`` is that norm's
Gram, and ``opnorm`` reads it (through the trial-norm solver) for the
norm of b.  The setups cover every interface kind: facet fluxes at p=1
and p=2, an H1 skeleton beside a flux (ultraweak DCR with the
coefficients of its manufactured case), H(curl) skeletons on the
complex ultraweak Maxwell form and the economy primal Maxwell form.
Pinned are, per interface slot, the Frobenius norm of the Gram and a
seeded probe v^H G v.  The probe lives in the coordinates of the
interface basis; its values for the H1 and H(curl) skeletons were
re-recorded once, when the reference bases were made canonical.

``opnorm`` stops its power iteration after at most ``niter`` steps, so
its value is a lower bound that depends on how the start vector meets
the top eigenspace, and with it on the bases.  The pinned norm of b is
instead the square root of the converged top eigenvalue of the pencil
(A, G_X), computed here with ``eigsh``; ``opnorm`` must not exceed it
and must come within 1 % of it.
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from dpgfem import system
from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import build_structured, refine_uniform
from dpgfem.system import Discretization


def _setup(name):
    """(formulation, mesh) of one named setup."""
    if name.startswith("maxwell"):
        mesh = build_structured("unit-cube", 1)
        if name == "maxwell_ultraweak":
            return make_formulation(name, 1), mesh
        return make_formulation("maxwell_primal_E", 1, delta=2,
                                mode="economy"), mesh
    mesh = refine_uniform(build_structured("unit-square", 2))
    if name == "ultraweak_dcr":
        params = manufactured_case("dcr_sine_2d").params
        return make_formulation(name, 1, params=params), mesh
    return make_formulation("primal_poisson", int(name[-1])), mesh


def characterize(name):
    """The per-slot Gram figures of one setup."""
    form, mesh = _setup(name)
    disc = Discretization(form, mesh)
    out = {}
    for s in form.interface_slots:
        G = sparse.csr_matrix(disc.interface_quotient_gram(s.name))
        rng = np.random.default_rng(3)
        v = rng.standard_normal(G.shape[0])
        if form.is_complex:
            v = v + 1j * rng.standard_normal(G.shape[0])
        out[f"{s.name}:frobenius"] = float(sparse.linalg.norm(G))
        out[f"{s.name}:probe"] = float(np.real(np.vdot(v, G @ v)))
    return out


# Values recorded with the dense quotient Gram; the uhat, Hhat and
# Ehat probes re-recorded with the canonical reference bases.
PINNED = {
    "poisson_p1": {
        "sighat:frobenius": 52.629637028277365,
        "sighat:probe": 252.76792352995116,
    },
    "poisson_p2": {
        "sighat:frobenius": 52.630659670950834,
        "sighat:probe": 174.46199922347188,
    },
    "ultraweak_dcr": {
        "uhat:frobenius": 73.10293830208968,
        "uhat:probe": 529.2243018021354,
        "sighat:frobenius": 52.629637028277365,
        "sighat:probe": 252.76792352995116,
    },
    "maxwell_ultraweak": {
        "Hhat:frobenius": 71.18939768763143,
        "Hhat:probe": 710.1464803031671,
        "Ehat:frobenius": 71.18939768763143,
        "Ehat:probe": 710.1464803031671,
    },
    "maxwell_primal_E_economy": {
        "Hhat:frobenius": 9.176622055024843,
        "Hhat:probe": 52.78127155804012,
    },
}


def converged_opnorm(disc):
    """||b||: the square root of the top eigenvalue of (A, G_X), with
    A the assembled DPG matrix and G_X the block trial-norm Gram."""
    Gx = sparse.lil_matrix((disc.ndof, disc.ndof), dtype=disc.form.dtype)
    for sl, G, _ in disc.xnorm_solver().blocks:
        Gx[sl, sl] = G
    lam = eigsh(disc._matrix(), k=1, M=Gx.tocsc(), which="LA", tol=0,
                return_eigenvectors=False)
    return float(np.sqrt(lam[0]))


# Values recorded with eigsh run to convergence (tol=0).
CONVERGED_OPNORM = {
    "poisson_p1": 1.408387665571288,
    "poisson_p2": 1.4123569412609476,
    "ultraweak_dcr": 1.7758810323752623,
    "maxwell_ultraweak": 1.713171176323498,
    "maxwell_primal_E_economy": 1.4103902186089248,
}


@pytest.mark.parametrize("name", sorted(CONVERGED_OPNORM))
def test_opnorm_is_below_the_converged_norm_of_b(name):
    form, mesh = _setup(name)
    disc = Discretization(form, mesh)
    top = converged_opnorm(disc)
    assert top == pytest.approx(CONVERGED_OPNORM[name], rel=1e-10)
    assert 0.99 * top <= disc.opnorm(seed=0) <= top * (1 + 1e-12)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quotient_norms_match_pinned_values(name):
    got = characterize(name)
    want = PINNED[name]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-10), key


def test_unrecoverable_trace_is_rejected(monkeypatch, eight_tri):
    """A lift that does not reproduce the slot traces fails loudly."""
    embed = system.trace_embedding

    def perturbed(*args):
        V = embed(*args).tocsc(copy=True)
        V.data[::7] *= 1.001
        return V

    monkeypatch.setattr(system, "trace_embedding", perturbed)
    disc = Discretization(make_formulation("ultraweak_dcr", 1), eight_tri)
    with pytest.raises(RuntimeError, match="not recoverable"):
        disc.interface_quotient_gram("uhat")
