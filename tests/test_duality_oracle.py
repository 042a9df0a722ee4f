"""The duality norms against a dense minimum-energy-extension oracle.

For every pairing at q = 3, 5, 7, the quotient and dual norms that
``duality_norms`` returns for the seeded traces of ``duality_suite``
must match a KKT solve on a finer rule (``oracles``) to rel 1e-10.
"""

import pytest

from oracles import min_energy_extension_norms

from dpgfem.verification import duality_norms, duality_traces


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("pairing", ["grad/div", "div/grad", "curlT/curlD",
                                     "curlD/curlT"])
def test_duality_norms_match_kkt_oracle(pairing, q):
    # the traces duality_suite uses for qs = (3, 5, 7)
    traces = duality_traces(pairing, 1, seed=0, count=5)
    want = min_energy_extension_norms(pairing, q, traces)
    for trace, (want_quot, want_dual) in zip(traces, want):
        quot, dual = duality_norms(pairing, q, trace)
        assert quot == pytest.approx(want_quot, rel=1e-10)
        assert dual == pytest.approx(want_dual, rel=1e-10)
