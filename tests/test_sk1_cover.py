"""SK_1 and H_2 from the cover presentation against the materialized route.

`sk1` reads the wedges [g~, h~] as kernel coordinates of the cover
presentation and takes one Smith form.  The oracle is the route it
replaced: list the Schur cover, close its kernel (the stem part) and the
subgroup of commuting wedges over the `class_centralizers` pairs (one per
class, not the pairs of `wedge_pairs` that `sk1` reads), and read SK_1 off
the subquotient element by element.
"""

import random
from dataclasses import replace
from itertools import islice
from pathlib import Path

import pytest

from conftest import class_centralizers, cyclic_product, relabel, rkm
from twogroups import homology, pcgroup
from twogroups.catalog import parse_catalog
from twogroups.homology import (
    ScaleError,
    commuting_pairs,
    commuting_wedges,
    cover_presentation,
    schur_cover,
)
from twogroups.ktheory import sk1
from twogroups.pcgroup import (
    PcError,
    PcGroup,
    derived_subgroup,
    subgroup,
    subquotient_invariants,
    trivial_subgroup,
    wedge_pairs,
)

SK1_SHIPPED = ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8",
               "SG128_1376", "SG128_1377", "SG256_8129", "SG256_8177", "SG256_9039"]
# (k, m) of the seeded SK_1 ladder, each with generator seed 100k + m
SK1_LADDER = [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4)]
COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"


def materialized(g):
    """(SK_1, H_2) invariants from the listed cover."""
    c = schur_cover(g)
    sc = c.cover
    wedges = subgroup(sc, [sc.comm(a, h) for a, hs in class_centralizers(g) for h in hs])
    assert wedges.elements <= c.stem_part.elements, g.name
    return (
        subquotient_invariants(c.cover, c.stem_part, wedges),
        subquotient_invariants(c.cover, c.stem_part, trivial_subgroup(c.cover)),
    )


def assert_matches_materialized(g):
    data = sk1(g)
    assert (data.invariants, data.cover.h2_invariants) == materialized(g), g.name


def test_sk1_matches_materialized_small_family(small_family):
    for g in small_family:
        assert_matches_materialized(g)


def test_sk1_matches_materialized_shipped(cat):
    for name in SK1_SHIPPED:
        assert_matches_materialized(cat[name])


def test_sk1_matches_materialized_relabelled_ladder():
    for seed in range(8):
        rng = random.Random(seed)
        for k, m in SK1_LADDER:
            assert_matches_materialized(relabel(rkm(k, m, 100 * k + m), rng))


def test_sk1_matches_materialized_frozen_covers():
    checked = 0
    for g in parse_catalog(COVERS_CAT.read_text()):
        try:
            expected = materialized(g)
        except ScaleError:
            continue
        data = sk1(g)
        assert (data.invariants, data.cover.h2_invariants) == expected, g.name
        checked += 1
    assert checked >= 2


def test_omega_matches_materialized_wedges(cat):
    for name in ["SG128_1376", "SG128_1377", "C2xC4", "D8"]:
        g = cat[name]
        data = sk1(g)
        c = schur_cover(g)
        wedges = commuting_wedges(g, c).elements
        for x in c.stem_part.elements:
            assert data.omega_nontrivial(x) == (x not in wedges), (name, x)
    with pytest.raises(PcError):
        sk1(cat["SG128_1376"]).omega_nontrivial(1)  # x1 is not in the kernel


def test_stem_certificate_rejects_non_stem(cat):
    # zeroing one chain's tail images splits that cyclic factor off: the
    # presentation is still consistent, but its kernel leaves [SC,SC]
    for name in ["D8", "C2xC4", "SG128_1376"]:
        g = cat[name]
        pres = cover_presentation(g)
        assert pres.certificate_failure() is None
        chain = pres.chains[-1]
        keep = ~sum(1 << p for p in chain)
        sc, n = pres.cover, g.n
        powers = [p & keep if i < n else p for i, p in enumerate(sc.powers)]
        comms = [[w & keep for w in row] for row in sc.comms]
        split = PcGroup("split", sc.n, powers, comms, validate=True)
        bad = replace(pres, cover=split)
        assert "not stem" in bad.certificate_failure(), name
        der = derived_subgroup(split).elements
        assert 1 << chain[0] not in der, name


def test_certificate_rejects_non_central_chain(cat):
    # a chain must be central: pointing one at x1, which fails to commute
    # with x2 in the cover of D8, is refused before the stem check
    pres = cover_presentation(cat["D8"])
    bad = replace(pres, chains=((0,),) + pres.chains[1:])
    assert bad.certificate_failure() == "chain generator x1 is not central"


def test_wedge_is_the_cover_commutator(cat):
    # k - k' against the collector's [g~, h~]; the Z/4 and Z/8 factors of
    # H_2 (C4xC4, C2xC4xC8, R(4,6) seed 1, G16384) tell the signs apart
    groups = [cyclic_product([2, 2]), cyclic_product([1, 2, 3]), cat["SG128_1376"]]
    for g in groups:
        pres = cover_presentation(g)
        sc = pres.cover
        for a, b in commuting_pairs(g):
            assert pres.wedge(a, b) == pres.kernel_coordinates(sc.comm(a, b)), g.name
    for g in [rkm(4, 6, 1), cat["G16384"]]:
        pres = cover_presentation(g)
        assert max(pres.h2_invariants) == 4
        pairs = [(a, h) for a, gens in islice(wedge_pairs(g), 200) for h in gens]
        for a, h in pairs:
            assert pres.wedge(a, h) == pres.kernel_coordinates(pres.cover.comm(a, h)), g.name


def test_wedge_raises_when_g_parts_differ(cat):
    # x1 and x2 of D8 do not commute: the two products' G-parts differ
    with pytest.raises(PcError, match="do not commute"):
        cover_presentation(cat["D8"]).wedge(1, 2)


def test_sk1_lists_and_closes_nothing_in_the_cover(cat, monkeypatch):
    closed = []
    original = pcgroup.subgroup

    def recording(group, gens, normal_closure=False):
        closed.append(group)
        return original(group, gens, normal_closure)

    for module in (pcgroup, homology):
        monkeypatch.setattr(module, "subgroup", recording)
    g = cat["SG128_1376"]
    data = sk1(g)
    assert all(group is not data.cover.cover for group in closed)
    assert data.invariants == (2,)
    closed.clear()
    cover = schur_cover(g)
    # the kernel closure only: no derived subgroup of the cover
    assert [group is cover.cover for group in closed].count(True) == 1


def test_g16384_invariants_under_relabelling(cat):
    # the unrelabelled answer is the golden record of `sk1 G16384` (about
    # 5 s a run): SK_1 = 0 and H_2 = (Z/2)^12 + (Z/4)^8
    for seed in range(2):
        data = sk1(relabel(cat["G16384"], random.Random(seed)))
        assert data.invariants == ()
        assert data.cover.h2_invariants == (2,) * 12 + (4,) * 8


def elementary(n):
    return PcGroup(f"C2x{n}", n, [0] * n, [[0] * n for _ in range(n)])


def test_cover_presentation_bounds():
    with pytest.raises(ScaleError, match=r"n <= 20 pc generators, got 21"):
        cover_presentation(elementary(21))
    # C2^12: |H_2| = 2^66, so 78 cover generators
    with pytest.raises(ScaleError, match=r"<= 48 cover generators, got 78"):
        cover_presentation(elementary(12))


def test_sk1_pair_bound():
    with pytest.raises(ScaleError, match=r"\|G\| n <= 2\^18 .* got 2\^15 x 15"):
        sk1(elementary(15))
