"""The verification caches change no result.

The duality workspaces share one rule per degree and one graph Gram and
Cholesky factor per (family, degree), and each takes one SVD whose rank
must be the dimension of its trace space.  Clearing them must reproduce
every record bit for bit.
"""

import numpy as np
import pytest

from dpgfem import verification
from dpgfem.polynomials import space_dimension
from dpgfem.verification import duality_suite, verify_records

_CACHES = (verification._workspace, verification._graph_gram_factor,
           verification._graph_gram, verification._duality_quadrature)


def _clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


def test_verify_records_survive_cleared_caches(monkeypatch):
    # in this process: forked workers fill only their own copies of the
    # caches cleared here
    monkeypatch.setattr(verification, "_worker_count", lambda n: 0)
    recs = verify_records()
    assert len(recs) == 30
    assert all(r["pass"] for r in recs)
    _clear_caches()
    assert verify_records() == recs


def test_duality_tables_survive_cleared_caches():
    qs = (3, 5, 7)
    first = duality_suite(p=1, qs=qs)
    _clear_caches()
    again = duality_suite(p=1, qs=qs)
    assert list(again) == list(first)
    for pairing, table in first.items():
        assert np.array_equal(again[pairing], table), pairing
    # three families at three degrees, for four pairings
    assert verification._graph_gram.cache_info().currsize == 9
    assert verification._duality_quadrature.cache_info().currsize == 3


@pytest.mark.parametrize("q", [3, 5, 7])
def test_shared_grams_are_read_only(q):
    tangential = verification._workspace("curlT/curlD", q)
    normal = verification._workspace("curlD/curlT", q)
    # both pairings extend and test in hcurl: one factor serves all four
    assert tangential.ext_factor is normal.ext_factor
    assert tangential.dual_factor is normal.dual_factor
    assert tangential.ext_factor is normal.dual_factor
    assert tangential.quad is verification._workspace("grad/div", q).quad
    for family in ("h1", "hdiv", "hcurl"):
        G = verification._graph_gram(family, q)
        R = verification._graph_gram_factor(family, q)
        assert not G.flags.writeable and not R.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0] = 0.0
        with pytest.raises(ValueError):
            R[0, 0] = 0.0


# the dimension of each family's surface trace at degree q: h1 and hcurl
# less their interior bubbles, hdiv P_{q-1} on each of the four faces
_TRACE_DIMENSION = {
    "h1": lambda q: space_dimension("h1", q, 3)
    - (space_dimension("h1", q - 4, 3) if q >= 4 else 0),
    "hdiv": lambda q: 2 * q * (q + 1),
    "hcurl": lambda q: q * (q + 2) * (q + 3) // 2 - q * (q - 1) * (q - 2) // 2,
}


@pytest.mark.parametrize("q", [3, 5, 7])
@pytest.mark.parametrize("pairing", list(verification._PAIRINGS))
def test_workspace_rank_is_the_trace_dimension(pairing, q):
    want = _TRACE_DIMENSION[verification._PAIRINGS[pairing][0]](q)
    ws = verification._workspace(pairing, q)
    assert len(ws.sv) == ws.Ut.shape[0] == want
    # the kept singular values are far above the rank cut
    assert ws.sv[-1] / ws.sv[0] > 1e-3


def test_workspace_rank_mismatch_is_reported(monkeypatch):
    monkeypatch.setattr(verification, "trace_dimension",
                        lambda family, q: 11)
    with pytest.raises(RuntimeError, match=r"div/grad workspace at q=4: "
                       r"trace rank 40, expected 11"):
        verification._DualityWorkspace("div/grad", 4)
