"""The verification caches change no result.

The duality workspaces share one rule per degree and one graph Gram and
Cholesky factor per (family, degree).  Clearing them, or filling them
from two worker threads, must reproduce every record bit for bit.
"""

import numpy as np
import pytest

from dpgfem import verification
from dpgfem.verification import duality_suite, verify_records

_CACHES = (verification._workspace, verification._graph_gram_factor,
           verification._graph_gram, verification._duality_quadrature)


def _clear_caches():
    for cached in _CACHES:
        cached.cache_clear()


def test_verify_records_do_not_depend_on_workers():
    recs = verify_records()
    assert len(recs) == 30
    assert all(r["pass"] for r in recs)
    _clear_caches()
    assert verify_records(max_workers=2) == recs


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
    assert tangential.G_ext is normal.G_ext
    assert tangential.dual_chol[0] is normal.dual_chol[0]
    assert tangential.quad is verification._workspace("grad/div", q).quad
    for family in ("h1", "hdiv", "hcurl"):
        G = verification._graph_gram(family, q)
        c, _ = verification._graph_gram_factor(family, q)
        assert not G.flags.writeable and not c.flags.writeable
        with pytest.raises(ValueError):
            G[0, 0] = 0.0
