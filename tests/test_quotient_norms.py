"""Characterization of the interface quotient norms and of opnorm.

Each interface slot is measured in the minimum-energy-extension norm of
its unbroken parent space; ``interface_quotient_gram`` is that norm's
Gram, and ``opnorm`` reads it (through the trial-norm Gram) for the
norm of b.  The setups cover every interface kind: facet fluxes at p=1
and p=2, an H1 skeleton beside a flux (ultraweak DCR with the
coefficients of its manufactured case, and alone on the dual mixed
form), a flux on tetrahedra, H(curl) skeletons on the complex ultraweak
Maxwell form, the economy primal Maxwell form and both guaranteed
primal Maxwell forms.
Pinned are, per interface slot, the Frobenius norm of the Gram and a
seeded probe v^H G v.  The probe lives in the coordinates of the
interface basis; its values for the H1 and H(curl) skeletons were
re-recorded once, when the reference bases were made canonical.

``opnorm`` runs a Lanczos iteration on the pencil (A, G_X) for at most
a fixed number of steps (``system._OPNORM_STEPS``), so its value is the
top Ritz value of a Krylov space, a lower bound that depends on how the
start vector meets the top eigenspace, and with it on the bases.  The
pinned norm of b is instead the square root of the converged top
eigenvalue of the pencil, computed here with ``eigsh`` from a fixed
seeded start vector, so that ARPACK draws nothing from process-wide
random state.  ``opnorm`` must not exceed it and must come within 1e-3
of it, and it must not fall below the 120-step power iteration it
replaced (``oracles.power_opnorm``).
"""

import numpy as np
import pytest
from scipy import sparse
from scipy.sparse.linalg import eigsh

from dpgfem import spaces
from dpgfem.formulations import make_formulation, manufactured_case
from dpgfem.meshes import build_structured, refine_uniform
from dpgfem.spaces import conforming_map
from dpgfem.system import Discretization
from oracles import power_opnorm


def _setup(name):
    """(formulation, mesh) of one named setup."""
    if name.startswith("maxwell") or name == "poisson_3d":
        mesh = build_structured("unit-cube", 1)
        if name == "maxwell_ultraweak":
            return make_formulation(name, 1), mesh
        if name == "maxwell_primal_E_economy":
            return make_formulation("maxwell_primal_E", 1, delta=2,
                                    mode="economy"), mesh
        # the 40-tet cube
        mesh = refine_uniform(mesh)
        if name == "poisson_3d":
            return make_formulation("primal_poisson", 1, dim=3), mesh
        return make_formulation(name, 1), mesh
    mesh = refine_uniform(build_structured("unit-square", 2))
    if name == "ultraweak_dcr":
        params = manufactured_case("dcr_sine_2d").params
        return make_formulation(name, 1, params=params), mesh
    if name == "dual_mixed_dcr":
        return make_formulation(name, 1), mesh
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
# Ehat probes re-recorded with the canonical reference bases.  The last
# four setups were recorded with the global trace embedding.
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
    "dual_mixed_dcr": {
        "uhat:frobenius": 73.10293830208936,
        "uhat:probe": 529.2243018021345,
    },
    "poisson_3d": {
        "sighat:frobenius": 69.87470129795413,
        "sighat:probe": 400.2340834590961,
    },
    "maxwell_primal_E": {
        "Hhat:frobenius": 466.0859914760944,
        "Hhat:probe": 10375.18017442654,
    },
    "maxwell_primal_H": {
        "Ehat:frobenius": 466.0859914760944,
        "Ehat:probe": 10375.18017442654,
    },
}


def converged_opnorm(disc):
    """||b||: the square root of the top eigenvalue of (A, G_X), with
    A the assembled DPG matrix and G_X the block trial-norm Gram."""
    # A and G_X are real for every formulation, so is the start vector
    Gx = disc.trial_gram()
    v0 = np.random.default_rng(0).standard_normal(disc.ndof)
    lam = eigsh(disc._matrix(), k=1, M=Gx, which="LA", tol=0, v0=v0,
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
    bnorm = disc.opnorm(seed=0)
    assert power_opnorm(disc, seed=0) <= bnorm <= top * (1 + 1e-12)
    assert bnorm >= (1 - 1e-3) * top
    assert bnorm >= 0.99 * top


@pytest.mark.parametrize("name", sorted(PINNED))
def test_quotient_norms_match_pinned_values(name):
    got = characterize(name)
    want = PINNED[name]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-10), key


def test_unrecoverable_trace_is_rejected(eight_tri):
    """An interface space whose traces its parent does not reproduce
    fails loudly: over degree-1 parents, the degree-2 H1 skeleton of the
    ultraweak DCR form and its degree-1 flux, of which the lowest-order
    Raviart-Thomas face functions give only the constants."""
    for slot in make_formulation("ultraweak_dcr", 1).interface_slots:
        space = spaces.InterfaceSpace(eight_tri, slot, 1, 8, None)
        with pytest.raises(RuntimeError, match="not recoverable"):
            space.cell_grams


@pytest.mark.parametrize("name", ["u", "v", "nohat"])
def test_quotient_gram_rejects_a_slot_that_is_not_an_interface(eight_tri,
                                                               name):
    disc = Discretization(make_formulation("primal_poisson", 1), eight_tri)
    with pytest.raises(ValueError, match=rf"'{name}' is not an interface "
                       r"slot of primal_poisson; its interface slots are "
                       r"\['sighat'\]"):
        disc.interface_quotient_gram(name)


@pytest.mark.parametrize("mode", ["guaranteed", "economy"])
def test_slots_of_one_interface_space_share_it(mode, five_tet, eight_tri):
    """Hhat and Ehat of the ultraweak Maxwell form are traces of one
    space: one space object and one dof map.  The H1 skeleton and the
    flux of the ultraweak DCR form are two spaces."""
    form = make_formulation("maxwell_ultraweak", 1,
                            delta=2 if mode == "economy" else 3, mode=mode)
    disc = Discretization(form, five_tet)
    assert disc._interfaces["Hhat"] is disc._interfaces["Ehat"]
    assert disc.dofmap("Hhat") is disc.dofmap("Ehat")
    dcr = Discretization(make_formulation("ultraweak_dcr", 1), eight_tri)
    assert dcr._interfaces["uhat"] is not dcr._interfaces["sighat"]
    assert dcr.dofmap("uhat") is not dcr.dofmap("sighat")


@pytest.mark.parametrize("fid", ["maxwell_ultraweak", "ultraweak_dcr"])
def test_only_slot_spaces_are_numbered(monkeypatch, five_tet, eight_tri, fid):
    """Building an interface space's norms numbers the slot's space over
    the mesh (``conforming_map``) once, and its parent never: the parent
    stays at the reference level."""
    numbered = []

    def recorded(mesh, basis, skeleton=False):
        numbered.append((basis.family, basis.degree))
        return conforming_map(mesh, basis, skeleton)

    monkeypatch.setattr(spaces, "conforming_map", recorded)
    maxwell = fid.startswith("maxwell")
    disc = Discretization(make_formulation(fid, 1),
                          five_tet if maxwell else eight_tri)
    case = manufactured_case("maxwell_sine_3d" if maxwell else "dcr_sine_2d")
    for s in disc.form.interface_slots:
        disc.interface_quotient_gram(s.name)
        disc.project_exact(s, case)
    disc.trial_gram()
    slots = {(s.family, s.degree) for s in disc.form.interface_slots}
    assert sorted(numbered) == sorted(slots)
