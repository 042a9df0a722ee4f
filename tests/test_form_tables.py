"""Characterization of the element kernels with non-default coefficients.

Every formulation is evaluated on one cell with a=2, beta, gamma=0.5 or
eps=2, mu=0.5, omega=1.5 against a manufactured case whose params equal
the formulation's.  The pinned numbers are seeded random probes
y1^H G y2, y1^H B x and y1^H l of the element system, plus the per-slot
errors of measure_error for a seeded coefficient vector, so that a
misplaced coefficient, sign or conjugation in any block, load or exact
interface trace changes them.  No other test uses coefficients other
than the defaults.
"""

import numpy as np
import pytest

from dpgfem.formulations import ManufacturedCase, make_formulation, \
    manufactured_case
from dpgfem.meshes import build_structured
from dpgfem.system import Discretization

DCR = {"a": 2.0, "gamma": 0.5}
BETA = (0.3, -0.2, 0.1)
MAXWELL = {"eps": 2.0, "mu": 0.5, "omega": 1.5}

# name -> (formulation id, dim, mode, parameter overrides)
CONFIGS = {
    "primal_poisson": ("primal_poisson", 2, "guaranteed", DCR),
    "primal_dcr": ("primal_dcr", 2, "guaranteed", DCR),
    "ultraweak_dcr": ("ultraweak_dcr", 2, "guaranteed", DCR),
    "mixed_dcr": ("mixed_dcr", 2, "guaranteed", DCR),
    "dual_mixed_dcr": ("dual_mixed_dcr", 2, "guaranteed", DCR),
    "strong_dcr": ("strong_dcr", 2, "guaranteed", DCR),
    "primal_poisson_3d": ("primal_poisson", 3, "guaranteed", DCR),
    "ultraweak_dcr_3d": ("ultraweak_dcr", 3, "guaranteed", DCR),
    "ultraweak_dcr_cell_a": ("ultraweak_dcr", 2, "guaranteed",
                             {"a": np.array([2.0, 0.7]), "gamma": 0.5}),
    "maxwell_primal_E": ("maxwell_primal_E", 3, "guaranteed", MAXWELL),
    "maxwell_primal_H": ("maxwell_primal_H", 3, "guaranteed", MAXWELL),
    "maxwell_ultraweak": ("maxwell_ultraweak", 3, "guaranteed", MAXWELL),
    "maxwell_mixed": ("maxwell_mixed", 3, "guaranteed", MAXWELL),
    "maxwell_dual_mixed": ("maxwell_dual_mixed", 3, "guaranteed", MAXWELL),
    "maxwell_strong": ("maxwell_strong", 3, "guaranteed", MAXWELL),
    "maxwell_primal_E_economy": ("maxwell_primal_E", 3, "economy", MAXWELL),
    "maxwell_ultraweak_economy": ("maxwell_ultraweak", 3, "economy", MAXWELL),
}


def _dcr_case(params, dim):
    """Sine solution of the DCR system with scalar diffusion a."""
    a = float(np.ravel(params["a"])[0])
    beta = np.asarray(params["beta"], dtype=float)
    gamma = params["gamma"]

    def u(x):
        return np.prod(np.sin(np.pi * x), axis=1)

    def grad_u(x):
        s, c = np.sin(np.pi * x), np.cos(np.pi * x)
        return np.pi * np.stack([c[:, k] * np.prod(np.delete(s, k, axis=1),
                                                    axis=1)
                                 for k in range(dim)], axis=1)

    def sigma(x):
        return a * (grad_u(x) + u(x)[:, None] * beta[None, :])

    def div_sigma(x):
        return a * (-dim * np.pi ** 2 * u(x) + grad_u(x) @ beta)

    fields = {"u": u, "grad_u": grad_u, "sigma": sigma,
              "div_sigma": div_sigma,
              "f2": lambda x: gamma * u(x) - div_sigma(x)}
    return ManufacturedCase("dcr_tables", dim, params, fields, {})


def _maxwell_case(params):
    """The maxwell_sine_3d fields rescaled to eps, mu, omega."""
    base = manufactured_case("maxwell_sine_3d").fields
    eps, mu, om = params["eps"], params["mu"], params["omega"]

    def curl_H(x):
        # base curl_H is curl curl E / i
        return base["curl_H"](x) * 1j / (1j * om * mu)

    fields = {"E": base["E"], "curl_E": base["curl_E"],
              "H": lambda x: base["curl_E"](x) / (1j * om * mu),
              "curl_H": curl_H,
              "J": lambda x: 1j * om * eps * base["E"](x) + curl_H(x)}
    return ManufacturedCase("maxwell_tables", 3, params, fields, {})


def _probe(rng, n, complex_):
    v = rng.standard_normal(n)
    return v + 1j * rng.standard_normal(n) if complex_ else v


def characterize(name):
    """Probe values of one configuration, as a flat name -> number dict."""
    fid, dim, mode, over = CONFIGS[name]
    params = dict(over)
    if fid.startswith("maxwell"):
        case = _maxwell_case(params)
    else:
        params["beta"] = np.array(BETA[:dim])
        case = _dcr_case(params, dim)
    form = make_formulation(fid, 1, delta=2 if mode == "economy" else 3,
                            dim=dim, params=params, mode=mode)
    mesh = build_structured("unit-square" if dim == 2 else "unit-cube", 1)
    disc = Discretization(form, mesh)
    ci = mesh.ncells - 1
    G, B, l = disc.element_system(ci, case)
    rng = np.random.default_rng(sorted(CONFIGS).index(name))
    y1 = _probe(rng, G.shape[0], True)
    y2 = _probe(rng, G.shape[0], True)
    x = _probe(rng, B.shape[1], True)
    out = {"G": np.vdot(y1, G @ y2), "B": np.vdot(y1, B @ x),
           "l": np.vdot(y1, l)}
    xg = _probe(rng, disc.ndof, form.is_complex)
    for slot, norms in disc.measure_error(xg, case).items():
        if slot == "total":
            out["error:total"] = norms
        else:
            for kind, value in norms.items():
                out[f"error:{slot}:{kind}"] = value
    return out


# Values recorded before the element kernels were rewritten as term
# tables; (real, imag) pairs for the probes, plain floats for errors.
PINNED = {
    'dual_mixed_dcr': {
        'G': (-2398.1680364354647, -3690.194180820752),
        'B': (26.176637355525386, 85.13388795585996),
        'l': (19.755119673311594, 13.495382718277662),
        'error:sigma:l2': 4.685956734685893,
        'error:sigma:natural': 20.457719715665352,
        'error:u:l2': 1.8788652574002223,
        'error:u:natural': 1.8788652574002223,
        'error:uhat:natural': 3.9088139876606056,
        'error:total': 20.912370917959535,
    },
    'maxwell_dual_mixed': {
        'G': (404.35300390295356, -2092.416799271102),
        'B': (53.84370218119321, 19.66274437129384),
        'l': (-18.401240543431037, -13.914719489927515),
        'error:H:l2': 4.312609152987343,
        'error:H:natural': 14.335111074771033,
        'error:E:l2': 6.633612895457773,
        'error:E:natural': 6.633612895457773,
        'error:Ehat:natural': 22.054519680210486,
        'error:total': 27.12751495986314,
    },
    'maxwell_mixed': {
        'G': (3022.7200316923063, 3514.9694203050226),
        'B': (33.60822603433151, -63.248085961654816),
        'l': (5.633494760524492, 8.66517127568229),
        'error:H:l2': 7.249856768268076,
        'error:H:natural': 7.249856768268076,
        'error:E:l2': 3.4748719730475544,
        'error:E:natural': 7.217653004050514,
        'error:Hhat:natural': 29.561960597433103,
        'error:total': 31.282014839384452,
    },
    'maxwell_primal_E': {
        'G': (7589.253513208842, 1195.7069499209215),
        'B': (69.45453472023176, -113.61355717977187),
        'l': (-4.455159312631245, -21.368546435495954),
        'error:E:l2': 3.4953472855539025,
        'error:E:natural': 9.372004263939914,
        'error:Hhat:natural': 23.805543973923786,
        'error:total': 25.583947854420884,
    },
    'maxwell_primal_E_economy': {
        'G': (-580.826407232956, -1865.0644346873426),
        'B': (85.03805417692135, -112.67590322629339),
        'l': (-13.270751258452664, -7.231289074991135),
        'error:E:l2': 1.963963928791549,
        'error:E:natural': 7.861643083946657,
        'error:Hhat:natural': 11.239776015580592,
        'error:total': 13.716340505389441,
    },
    'maxwell_primal_H': {
        'G': (-3709.9589104020465, -621.3777157213187),
        'B': (-20.620629707876994, -21.952121577455962),
        'l': (53.71148264046732, 37.71564905921777),
        'error:H:l2': 3.47795903073834,
        'error:H:natural': 14.549138523790079,
        'error:Ehat:natural': 30.147719958714273,
        'error:total': 33.47480321814441,
    },
    'maxwell_strong': {
        'G': (55.158483263303, -2.5999126591969515),
        'B': (5.818213683491605, -1.3212459911031758),
        'l': (10.267441368985551, 12.453821681523724),
        'error:H:l2': 3.585188364206156,
        'error:H:natural': 14.041877739876899,
        'error:E:l2': 3.343509484736144,
        'error:E:natural': 9.526416661411321,
        'error:total': 16.968410204508423,
    },
    'maxwell_ultraweak': {
        'G': (4870.077733595644, 5824.058075004248),
        'B': (21.696150159568063, -41.22977519920384),
        'l': (-7.052958136941701, 4.894213291101614),
        'error:H:l2': 6.883413414979142,
        'error:H:natural': 6.883413414979142,
        'error:E:l2': 6.427180326822619,
        'error:E:natural': 6.427180326822619,
        'error:Hhat:natural': 26.585710108204715,
        'error:Ehat:natural': 28.854908544434206,
        'error:total': 40.34966860161519,
    },
    'maxwell_ultraweak_economy': {
        'G': (1833.1909834280746, 1544.26229803673),
        'B': (-96.16207242467375, 24.316775996456485),
        'l': (8.090439832766709, 3.19555117487389),
        'error:H:l2': 7.134414261811249,
        'error:H:natural': 7.134414261811249,
        'error:E:l2': 7.615939959891017,
        'error:E:natural': 7.615939959891017,
        'error:Hhat:natural': 8.831865530318575,
        'error:Ehat:natural': 7.634417685743936,
        'error:total': 15.65849898546568,
    },
    'mixed_dcr': {
        'G': (300.5723754641457, -1695.2849655028108),
        'B': (73.04965326398494, -47.901733575112296),
        'l': (-18.015729623935062, 3.5322511948485387),
        'error:sigma:l2': 3.6019015375313304,
        'error:sigma:natural': 3.6019015375313304,
        'error:u:l2': 1.0030884705993017,
        'error:u:natural': 4.711957978269298,
        'error:sighat:natural': 15.808398983135199,
        'error:total': 16.884363212304937,
    },
    'primal_dcr': {
        'G': (2977.2954386641704, 229.89572400069096),
        'B': (211.648756874759, -12.987327243939799),
        'l': (-11.468335662499053, 0.23865970944165973),
        'error:u:l2': 1.005334367306934,
        'error:u:natural': 4.813386097630137,
        'error:sighat:natural': 18.096897647885243,
        'error:total': 18.726088491804514,
    },
    'primal_poisson': {
        'G': (276.4065724692042, -1898.0870226827847),
        'B': (24.2015223824895, -296.06276585301026),
        'l': (2.6162237147908853, -9.169366057742534),
        'error:u:l2': 1.7124027715764734,
        'error:u:natural': 8.547945420213884,
        'error:sighat:natural': 15.635269876975947,
        'error:total': 17.819344405247545,
    },
    'primal_poisson_3d': {
        'G': (1781.198690645751, -7196.139897043473),
        'B': (8.955806203564386, -22.165251949437554),
        'l': (2.082426622405039, -5.58021842198698),
        'error:u:l2': 0.9271575066802151,
        'error:u:natural': 5.473403236957172,
        'error:sighat:natural': 21.804375804995136,
        'error:total': 22.480857351084065,
    },
    'strong_dcr': {
        'G': (-1.9150747468926461, 7.425798783465921),
        'B': (-0.08283663758881854, 15.564976404337106),
        'l': (14.686103237636464, -10.575613909591928),
        'error:sigma:l2': 5.511117974055848,
        'error:sigma:natural': 24.927682710993768,
        'error:u:l2': 1.8471985948157776,
        'error:u:natural': 8.450493196281075,
        'error:total': 26.321098012817973,
    },
    'ultraweak_dcr': {
        'G': (269.07913496456297, 2583.409594649467),
        'B': (49.67134766835959, -36.63507985863768),
        'l': (-9.92938790355046, 6.2513817039715915),
        'error:sigma:l2': 6.20105932539415,
        'error:sigma:natural': 6.20105932539415,
        'error:u:l2': 0.8751511634659047,
        'error:u:natural': 0.8751511634659047,
        'error:uhat:natural': 4.487262131650267,
        'error:sighat:natural': 19.592670693717047,
        'error:total': 21.05296398768009,
    },
    'ultraweak_dcr_3d': {
        'G': (4996.402040078772, 3206.7203245881897),
        'B': (-15.165151730638524, -80.82963447845516),
        'l': (-5.386209125215225, -35.616227591631294),
        'error:sigma:l2': 5.401936337387236,
        'error:sigma:natural': 5.401936337387236,
        'error:u:l2': 2.7807117247598545,
        'error:u:natural': 2.7807117247598545,
        'error:uhat:natural': 4.869819680397109,
        'error:sighat:natural': 19.269656413869118,
        'error:total': 20.783360553999724,
    },
    'ultraweak_dcr_cell_a': {
        'G': (-3902.188945247785, 5008.552614110173),
        'B': (10.411751773098633, -12.676673202545981),
        'l': (-7.154778757711115, 28.90966202388865),
        'error:sigma:l2': 6.460935572377594,
        'error:sigma:natural': 6.460935572377594,
        'error:u:l2': 0.6134648727415314,
        'error:u:natural': 0.6134648727415314,
        'error:uhat:natural': 5.653868314362302,
        'error:sighat:natural': 17.005607878090217,
        'error:total': 19.059825650829445,
    },
}


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_element_kernels_match_pinned_values(name):
    got = characterize(name)
    want = PINNED[name]
    assert sorted(got) == sorted(want)
    for key, value in want.items():
        value = complex(*value) if isinstance(value, tuple) else value
        assert abs(got[key] - value) <= 1e-12 * abs(value), (key, got[key],
                                                               value)
