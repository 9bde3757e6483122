"""Invariants under a seeded relabelling of the central block.

`conftest.relabel` applies an invertible GF(2) change of basis to the
central generators that hold every relation value, which gives an
isomorphic group with other relation words.  Nothing computed from the
isomorphism type may change: the H^1(Wh') rank, the fingerprint, and the
search-ext entries with their quotient fingerprints.
"""

import random

import pytest

from conftest import CENTRAL_BLOCK, RKM, RKM_LARGER, relabel, rkm
from twogroups.catalog import fingerprint
from twogroups.ktheory import h1_wh_prime, search_central_extensions

# the R(k,m) ladder, with R(4,4) seed 406 for a search-ext entry off the catalog
LADDER = RKM + RKM_LARGER + [(4, 4, 406)]


def invariants(group):
    entries = search_central_extensions(group)
    return {
        "h1whp": h1_wh_prime(group).rank,
        "fingerprint": fingerprint(group),
        "search_ext": [e.quotient_fingerprint for e in entries],
    }


def test_relabelled_shipped_groups(cat):
    for name in CENTRAL_BLOCK:
        g = cat[name]
        seeds = range(1) if g.n > 8 else range(3)  # G16384 costs about 2 s a side
        want = invariants(g)
        for seed in seeds:
            assert invariants(relabel(g, random.Random(seed))) == want, (name, seed)


@pytest.mark.parametrize("k,m,seed", LADDER)
def test_relabelled_ladder(k, m, seed):
    g = rkm(k, m, seed)
    want = invariants(g)
    for relabel_seed in range(3):
        assert invariants(relabel(g, random.Random(relabel_seed))) == want, relabel_seed


def test_search_ext_cases_are_present(cat):
    # the property above compares entry lists; these inputs have entries
    counts = [len(search_central_extensions(g))
              for g in [cat["SG256_8129"], cat["SG256_8177"], rkm(4, 4, 406), rkm(5, 5, 2)]]
    assert counts == [1, 1, 1, 1]
