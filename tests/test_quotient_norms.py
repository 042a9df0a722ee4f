"""Characterization of the interface quotient norms and of opnorm.

Each interface slot is measured in the minimum-energy-extension norm of
its unbroken parent space; ``interface_quotient_gram`` is that norm's
Gram, and ``opnorm`` reads it (through the trial-norm solver) for the
norm of b.  The setups cover every interface kind: facet fluxes at p=1
and p=2, an H1 skeleton beside a flux (ultraweak DCR with the
coefficients of its manufactured case), H(curl) skeletons on the
complex ultraweak Maxwell form and the economy primal Maxwell form.
Pinned are ||b|| for seed 0 and, per interface slot, the Frobenius
norm of the Gram and a seeded probe v^H G v.
"""

import numpy as np
import pytest
from scipy import sparse

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
    """||b|| and the per-slot Gram figures of one setup."""
    form, mesh = _setup(name)
    disc = Discretization(form, mesh)
    out = {"opnorm": disc.opnorm(seed=0)}
    for s in form.interface_slots:
        G = sparse.csr_matrix(disc.interface_quotient_gram(s.name))
        rng = np.random.default_rng(3)
        v = rng.standard_normal(G.shape[0])
        if form.is_complex:
            v = v + 1j * rng.standard_normal(G.shape[0])
        out[f"{s.name}:frobenius"] = float(sparse.linalg.norm(G))
        out[f"{s.name}:probe"] = float(np.real(np.vdot(v, G @ v)))
    return out


# Values recorded with the dense quotient Gram.
PINNED = {
    "poisson_p1": {
        "opnorm": 1.408247015075278,
        "sighat:frobenius": 52.629637028277365,
        "sighat:probe": 252.76792352995116,
    },
    "poisson_p2": {
        "opnorm": 1.4097383679440438,
        "sighat:frobenius": 52.630659670950834,
        "sighat:probe": 174.46199922347188,
    },
    "ultraweak_dcr": {
        "opnorm": 1.7758786701982903,
        "uhat:frobenius": 73.10293830208968,
        "uhat:probe": 637.8840093344666,
        "sighat:frobenius": 52.629637028277365,
        "sighat:probe": 252.76792352995116,
    },
    "maxwell_ultraweak": {
        "opnorm": 1.7131517719240181,
        "Hhat:frobenius": 71.18939768763143,
        "Hhat:probe": 384.41195955304806,
        "Ehat:frobenius": 71.18939768763143,
        "Ehat:probe": 384.41195955304806,
    },
    "maxwell_primal_E_economy": {
        "opnorm": 1.410232299378641,
        "Hhat:frobenius": 9.176622055024843,
        "Hhat:probe": 52.78127155804012,
    },
}


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
