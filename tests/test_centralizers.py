"""Class representatives with centralizer generators against brute force.

`commuting_wedges` and `commuting_wedge_span` read only the pairs
(class representative, centralizer generator) of `class_centralizers`; the
oracle is the |G|^2 walk `commuting_pairs` over every commuting pair.
"""

import random

import pytest

from twogroups.homology import (
    commuting_pairs,
    commuting_wedge_span,
    commuting_wedges,
    schur_cover,
    wedge_space,
)
from twogroups.linalg import Gf2Span
from twogroups.pcgroup import PcError, PcGroup, class_centralizers, conjugacy_classes, subgroup

SHIPPED = ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8",
           "SG128_1376", "SG128_1377"]
# (k, m, seed): R(k,m) of order 2^(k+m) <= 2^7
RKM = [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2), (3, 4, 3)]
COVERED = ["D8", "C8", "C2xC4"]
# covers of covers, all on the generic collector (orders 16, 64, 32)
TWICE_COVERED = ["C2xC2", "C2xC4", "D8"]


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


def groups(cat):
    out = [cat[name] for name in SHIPPED]
    out += [rkm(k, m, seed) for k, m, seed in RKM]
    out += [schur_cover(cat[name]).cover for name in COVERED]
    out += [schur_cover(schur_cover(cat[name]).cover).cover for name in TWICE_COVERED]
    assert sum(not g.is_fast for g in out) >= 5
    return out


@pytest.fixture(scope="module")
def inputs(cat):
    return groups(cat)


def test_centralizer_generators_give_centralizer_orders(inputs):
    for g in inputs:
        class_of = {x: c for c in conjugacy_classes(g) for x in c.elements}
        reps = []
        for rep, gens in class_centralizers(g):
            assert g.identity not in gens and len(set(gens)) == len(gens)
            assert all(g.comm(rep, s) == g.identity for s in gens), g.name
            assert subgroup(g, gens).order == class_of[rep].centralizer_order, g.name
            reps.append(rep)
        assert sorted(class_of[r].rep for r in reps) == sorted(
            c.rep for c in conjugacy_classes(g)
        ), g.name


def test_commuting_wedges_match_brute_force(inputs):
    for g in inputs:
        cover = schur_cover(g)
        sc = cover.cover
        oracle = subgroup(sc, [sc.comm(a, b) for a, b in commuting_pairs(g)])
        assert commuting_wedges(g, cover).elements == oracle.elements, g.name


def test_commuting_wedge_span_matches_brute_force(inputs):
    checked = 0
    for g in inputs:
        try:
            ws = wedge_space(g)
        except PcError:
            continue
        oracle = Gf2Span()
        for a, b in commuting_pairs(g):
            oracle.add(ws.wedge_of_classes(ws.class_mask(a), ws.class_mask(b)))
        span = commuting_wedge_span(g, ws)
        assert span.rank == oracle.rank, g.name
        assert all(oracle.contains(v) for v in span.basis()), g.name
        checked += 1
    assert checked >= 8


def test_class_centralizers_is_deterministic(cat):
    g = cat["SG128_1376"]
    assert list(class_centralizers(g)) == list(class_centralizers(g))
