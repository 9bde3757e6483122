import random

import pytest

from twogroups.catalog import shipped_catalog
from twogroups.homology import schur_cover
from twogroups.pcgroup import PcGroup

SHIPPED_SMALL = ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8",
                 "SG128_1376", "SG128_1377"]
# (k, m, seed): R(k,m) of order 2^(k+m) <= 2^7
RKM = [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2), (3, 4, 3)]
# order 2^10, for the per-coset fast paths: [G,G]-cosets of 2^4 and 2^5
RKM_LARGER = [(6, 4, 1), (5, 5, 2)]
COVERED = ["D8", "C8", "C2xC4"]
# covers of covers, all on the generic collector (orders 16, 64, 32)
TWICE_COVERED = ["C2xC2", "C2xC4", "D8"]


@pytest.fixture(scope="session")
def cat():
    return shipped_catalog()


def rkm(k, m, seed):
    """Random class-2 group: the k top generators have seeded random squares
    and commutators in the m central generators of order two."""
    rng = random.Random(seed)
    n = k + m
    powers = [rng.getrandbits(m) << k if i < k else 0 for i in range(n)]
    comms = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(i + 1, k):
            comms[i][j] = rng.getrandbits(m) << k
    return PcGroup(f"R{k}_{m}_s{seed}", n, powers, comms, validate=True)


@pytest.fixture(scope="session")
def small_family(cat):
    """Groups of order <= 2^7 small enough for |G|^2 oracles: shipped groups,
    seeded R(k,m), Schur covers, and covers of covers on the generic path."""
    out = [cat[name] for name in SHIPPED_SMALL]
    out += [rkm(k, m, seed) for k, m, seed in RKM]
    out += [schur_cover(cat[name]).cover for name in COVERED]
    out += [schur_cover(schur_cover(cat[name]).cover).cover for name in TWICE_COVERED]
    assert sum(not g.is_fast for g in out) >= 5
    return out
