"""Results that do not depend on the choice of reference bases.

The DPG solution is the residual minimizer over the trial space with
optimal test functions from the enriched test space, so the discrete
solution, its per-slot errors and the residual estimate eta depend only
on the spaces and not on the bases that span them.  Every configuration
of ``test_form_tables`` (its non-default coefficients, with the case
params passed to the formulation) is solved on the 8-triangle or 5-tet
mesh and these basis-free figures are pinned.  A change of reference
basis, such as making the bases canonical, must leave them unchanged.
"""

import numpy as np
import pytest

from dpgfem.formulations import make_formulation
from dpgfem.meshes import build_structured
from dpgfem.system import Discretization
from test_form_tables import BETA, CONFIGS, _dcr_case, _maxwell_case


def characterize(name):
    """Per-slot errors of the solved DPG solution and eta, flattened."""
    fid, dim, mode, over = CONFIGS[name]
    mesh = build_structured("unit-square", 2) if dim == 2 \
        else build_structured("unit-cube", 1)
    params = dict(over)
    if fid.startswith("maxwell"):
        case = _maxwell_case(params)
    else:
        a = np.asarray(params["a"])
        if a.ndim:
            # one value per cell: repeat the configuration's pattern
            params["a"] = np.resize(a, mesh.ncells)
        params["beta"] = np.array(BETA[:dim])
        case = _dcr_case(params, dim)
    form = make_formulation(fid, 1, delta=2 if mode == "economy" else 3,
                            dim=dim, params=params, mode=mode)
    disc = Discretization(form, mesh)
    x = disc.solve(*disc.assemble(case))
    out = {"eta": disc.estimate(x, case).eta}
    for slot, norms in disc.measure_error(x, case).items():
        if slot == "total":
            out["error:total"] = norms
        else:
            for kind, value in norms.items():
                out[f"error:{slot}:{kind}"] = value
    return out


# Values recorded with the reference bases chosen inside degenerate
# eigenspaces, before they were made canonical.
PINNED = {
    'dual_mixed_dcr': {
        'error:sigma:l2': 0.4458388925066826,
        'error:sigma:natural': 2.922407739333656,
        'error:total': 2.928940333225395,
        'error:u:l2': 0.1272775827678529,
        'error:u:natural': 0.1272775827678529,
        'error:uhat:natural': 0.14840787580857123,
        'eta': 2.9514520389485526,
    },
    'maxwell_dual_mixed': {
        'error:E:l2': 0.3946424965694408,
        'error:E:natural': 0.3946424965694408,
        'error:Ehat:natural': 0.3925133314253456,
        'error:H:l2': 1.1232476873653043,
        'error:H:natural': 7.5100878532696775,
        'error:total': 7.530685823965434,
        'eta': 7.001542350600113,
    },
    'maxwell_mixed': {
        'error:E:l2': 0.35355310795115713,
        'error:E:natural': 1.610095788895477,
        'error:H:l2': 1.8096901126673322,
        'error:H:natural': 1.8096901126673322,
        'error:Hhat:natural': 2.049844074254442,
        'error:total': 3.1732077590446073,
        'eta': 4.035422735814229,
    },
    'maxwell_primal_E': {
        'error:E:l2': 0.35355310795115713,
        'error:E:natural': 1.6100957888954766,
        'error:Hhat:natural': 2.0550604504366343,
        'error:total': 2.6106860983978466,
        'eta': 6.1905536766398255,
    },
    'maxwell_primal_E_economy': {
        'error:E:l2': 0.35355697623658844,
        'error:E:natural': 1.6100531750220934,
        'error:Hhat:natural': 1.423383865536943,
        'error:total': 2.1490213714781,
        'eta': 7.962960610991638,
    },
    'maxwell_primal_H': {
        'error:Ehat:natural': 0.38516573880013655,
        'error:H:l2': 1.128281586761042,
        'error:H:natural': 7.522714832402492,
        'error:total': 7.53256869175409,
        'eta': 3.6273698816612847,
    },
    'maxwell_strong': {
        'error:E:l2': 0.35355310795115713,
        'error:E:natural': 1.610095788895477,
        'error:H:l2': 1.1407905969518701,
        'error:H:natural': 7.5486607601425275,
        'error:total': 7.7184640778547715,
        'eta': 7.088251460121689,
    },
    'maxwell_ultraweak': {
        'error:E:l2': 0.2164037307749945,
        'error:E:natural': 0.2164037307749945,
        'error:Ehat:natural': 0.27662828732338246,
        'error:H:l2': 1.7936614414339898,
        'error:H:natural': 1.7936614414339898,
        'error:Hhat:natural': 1.910578808744977,
        'error:total': 2.644028467122326,
        'eta': 3.999636926779742,
    },
    'maxwell_ultraweak_economy': {
        'error:E:l2': 0.2970259954446116,
        'error:E:natural': 0.2970259954446116,
        'error:Ehat:natural': 0.37052605811154127,
        'error:H:l2': 1.782138926915232,
        'error:H:natural': 1.782138926915232,
        'error:Hhat:natural': 1.4953548246981683,
        'error:total': 2.3743671174197565,
        'eta': 4.992182099905788,
    },
    'mixed_dcr': {
        'error:sighat:natural': 1.6484300592273038,
        'error:sigma:l2': 2.271071949968471,
        'error:sigma:natural': 2.271071949968471,
        'error:total': 2.8855173139454404,
        'error:u:l2': 0.08851008626065603,
        'error:u:natural': 0.671655199474541,
        'eta': 1.8171493822021139,
    },
    'primal_dcr': {
        'error:sighat:natural': 0.06813077182807453,
        'error:total': 0.47178960298565703,
        'error:u:l2': 0.032947858944623314,
        'error:u:natural': 0.4668443288886293,
        'eta': 0.9610438534925467,
    },
    'primal_poisson': {
        'error:sighat:natural': 0.06813077182807453,
        'error:total': 0.47178960298565703,
        'error:u:l2': 0.032947858944623314,
        'error:u:natural': 0.4668443288886293,
        'eta': 0.9610438534925467,
    },
    'primal_poisson_3d': {
        'error:sighat:natural': 0.7356664097538422,
        'error:total': 2.0898128379563214,
        'error:u:l2': 0.35355310795115713,
        'error:u:natural': 1.956045150615636,
        'eta': 4.383731044937518,
    },
    'strong_dcr': {
        'error:sigma:l2': 0.4454723945385706,
        'error:sigma:natural': 2.921911734406245,
        'error:total': 2.9589654042044953,
        'error:u:l2': 0.0324572434671458,
        'error:u:natural': 0.46680625490471384,
        'eta': 2.93348575901288,
    },
    'ultraweak_dcr': {
        'error:sighat:natural': 1.3825838475864565,
        'error:sigma:l2': 2.3141502371699465,
        'error:sigma:natural': 2.3141502371699465,
        'error:total': 2.709631233839879,
        'error:u:l2': 0.2432695853585673,
        'error:u:natural': 0.2432695853585673,
        'error:uhat:natural': 0.1268539177140647,
        'eta': 1.7907346851476336,
    },
    'ultraweak_dcr_3d': {
        'error:sighat:natural': 1.8667383453082422,
        'error:sigma:l2': 3.4377578157364277,
        'error:sigma:natural': 3.4377578157364277,
        'error:total': 4.069550961839359,
        'error:u:l2': 0.28907747949447815,
        'error:u:natural': 0.28907747949447815,
        'error:uhat:natural': 1.083876557711126,
        'eta': 4.013803947365273,
    },
    'ultraweak_dcr_cell_a': {
        'error:sighat:natural': 2.0672137719388077,
        'error:sigma:l2': 2.8226695490644196,
        'error:sigma:natural': 2.8226695490644196,
        'error:total': 3.88883509640486,
        'error:u:l2': 0.3713827183979163,
        'error:u:natural': 0.3713827183979163,
        'error:uhat:natural': 1.65658598370159,
        'eta': 2.140239255606733,
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_solution_figures_do_not_depend_on_the_bases(name):
    got = characterize(name)
    want = PINNED[name]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-9), key
