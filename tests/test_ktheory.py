import random

import pytest

from conftest import RKM, rkm
from twogroups.catalog import fingerprint
from twogroups.homology import schur_cover
from twogroups.ktheory import (
    central_extension,
    central_extension_from_hom,
    commutator_values,
    h1_wh_prime,
    search_central_extensions,
    sk1,
    thm41_check,
    thm42_check,
)
from twogroups.linalg import smith_normal_form
from twogroups.pcgroup import (
    PcGroup,
    QuotientGroup,
    TailCollector,
    derived_subgroup,
    homomorphism,
    subgroup,
    trivial_subgroup,
)


WH_EXPECTED = {
    "SG128_1377": 0,
    "SG256_9039": 1,
    "G16384": 3,
    "C2": 0,
    "C4": 0,
    "C8": 0,
    "C2xC2": 0,
    "C2xC2xC2": 0,
    "C2xC4": 0,
    "D8": 0,
    "Q8": 0,
}


@pytest.mark.parametrize("name,rank", sorted(WH_EXPECTED.items()))
def test_h1_wh_prime_ranks(cat, name, rank):
    data = h1_wh_prime(cat[name])
    assert data.rank == rank
    g = cat[name]
    # structural facts: [G,G] <= C <= S, C normal, S/C elementary abelian
    der = derived_subgroup(g)
    assert der.elements <= data.c_subgroup.elements <= data.s_subgroup.elements
    assert data.c_subgroup.is_normal
    assert data.s_subgroup.order == data.c_subgroup.order << data.rank
    for a, h in data.witnesses:
        assert g.conj(a, h) == g.inv(a)


def test_h1_wh_prime_fast_matches_generic(cat):
    names = ["SG128_1376", "SG128_1377", "SG256_9039", "D8", "Q8", "C2xC4"]
    groups = [cat[name] for name in names] + [rkm(k, m, seed) for k, m, seed in RKM]
    for g in groups:
        name = g.name
        fast = h1_wh_prime(g)
        # G/1 is not a PcGroup, so h1_wh_prime takes the generic orbit path
        q = QuotientGroup(g, trivial_subgroup(g))
        slow = h1_wh_prime(q)
        assert slow.rank == fast.rank, name
        assert slow.s_subgroup.elements == fast.s_subgroup.elements, name
        assert slow.c_subgroup.elements == fast.c_subgroup.elements, name
        assert {a for a, _ in slow.witnesses} == {a for a, _ in fast.witnesses}, name
        for a, h in slow.witnesses:
            assert q.conj(a, h) == q.inv(a), name


def test_h1_wh_prime_matches_brute_force(small_family):
    # S/C from all |G|^2 pairs: [G,G] from every commutator, C from [G,G]
    # and every g in S that some h conjugates to g^-1
    for g in small_family:
        pairs = [(a, b) for a in g.elements() for b in g.elements()]
        der = subgroup(g, [g.comm(a, b) for a, b in pairs])
        s_elems = {a for a in g.elements() if g.square(a) in der.elements}
        inverted = {a for a, b in pairs if a in s_elems and g.conj(a, b) == g.inv(a)}
        c = subgroup(g, list(der.elements) + sorted(inverted))
        data = h1_wh_prime(g)
        assert data.s_subgroup.elements == s_elems, g.name
        assert data.c_subgroup.elements == c.elements, g.name
        assert data.s_subgroup.order == c.order << data.rank, g.name
        assert {a for a, _ in data.witnesses} == inverted - der.elements, g.name
        for a, h in data.witnesses:
            assert g.conj(a, h) == g.inv(a), g.name


def test_sk1_values(cat):
    assert sk1(cat["SG128_1376"]).invariants == (2,)
    assert sk1(cat["SG128_1377"]).invariants == (2,)
    for name in ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4"]:
        assert sk1(cat[name]).invariants == (), name


def test_sk1_omega_membership(cat):
    data = sk1(cat["SG128_1376"])
    stem = data.cover.stem_part
    hits = [x for x in stem.sorted_elements() if data.omega_nontrivial(x)]
    # exactly the non-wedge half of the stem part maps to the nonzero class
    assert len(hits) == stem.order - data.wedges.order


def test_extension_criteria_on_catalog_towers(cat):
    for cover_name, sigma in [("SG256_8177", [7, 8]), ("SG256_8129", [5, 8])]:
        ext = central_extension(cat[cover_name], sigma)
        assert thm41_check(ext).holds
        assert thm42_check(ext).holds
        assert ext.omega_disjoint and ext.lifting_condition


def test_thm41_commutator_sigma_fails(cat):
    g = cat["SG256_8177"]
    ext = central_extension(g, [5])  # x5 = [x1, x2] is a commutator
    res = thm41_check(ext)
    assert not res.holds
    a, b = res.witness["pair"]
    ea = g.collect([(int(t[1:]), 1) for t in a.split("*")])
    eb = g.collect([(int(t[1:]), 1) for t in b.split("*")])
    assert g.comm(ea, eb) == g.element_from_indices([5])


def test_thm42_split_extension_true(cat):
    base = cat["SG128_1376"]
    n = base.n
    prod = PcGroup(
        f"{base.name}xC2",
        n + 1,
        list(base.powers) + [0],
        [list(row) + [0] for row in base.comms] + [[0] * (n + 1)],
    )
    ext = central_extension(prod, [n + 1])
    assert thm42_check(ext).holds


def test_search_finds_expected_quotients(cat):
    for cover_name, quot_name in [
        ("SG256_8177", "SG128_1377"),
        ("SG256_8129", "SG128_1376"),
    ]:
        entries = search_central_extensions(cat[cover_name])
        assert len(entries) == 1
        assert entries[0].quotient_fingerprint == fingerprint(cat[quot_name])
        assert entries[0].thm42_holds


def test_search_abelian_empty(cat):
    assert search_central_extensions(cat["C2xC4"]) == []


def test_cross_validation_thm41_implies_sk1_nonzero(cat):
    # over the shipped extensions: when thm41 passes for (cover, sigma), the
    # SK1 of the (catalog representative of the) quotient is nontrivial
    for cover_name, quot_name in [
        ("SG256_8177", "SG128_1377"),
        ("SG256_8129", "SG128_1376"),
    ]:
        ext = central_extension(cat[cover_name], {"SG256_8177": [7, 8],
                                                  "SG256_8129": [5, 8]}[cover_name])
        assert thm41_check(ext).holds
        assert sk1(cat[quot_name]).order > 1


def test_commutator_values_match_bruteforce(cat):
    # the second input, the cover of the cover of D8, is on the generic collector
    twice = schur_cover(schur_cover(cat["D8"]).cover).cover
    assert not twice.is_fast
    for g in [cat["SG128_1376"], twice]:
        brute = {g.comm(a, b) for a in g.elements() for b in g.elements()}
        assert commutator_values(g) == brute, g.name


def test_sk1_invariant_under_tail_permutation(cat, monkeypatch):
    # the SK1 answer only depends on the Smith form of the consistency rows,
    # which is permutation invariant
    rng = random.Random(12)
    g = cat["SG128_1377"]
    tc = TailCollector(g)
    rows = tc.consistency_rows()
    diag, _, _ = smith_normal_form(rows)
    torsion = sorted(d for d in diag if d not in (0, 1))
    shuffled = [list(r) for r in rows]
    rng.shuffle(shuffled)
    diag2, _, _ = smith_normal_form(shuffled)
    assert sorted(d for d in diag2 if d not in (0, 1)) == torsion
    # regenerate the cover with the consistency relations in shuffled order;
    # the cover presentation changes but SK1 must not
    base = sk1(g).invariants
    original = TailCollector.consistency_rows

    def shuffled_rows(self):
        out = original(self)
        random.Random(99).shuffle(out)
        return out

    monkeypatch.setattr(TailCollector, "consistency_rows", shuffled_rows)
    regenerated = sk1(g, schur_cover(g))
    assert regenerated.invariants == base
    assert regenerated.cover.h2_invariants == schur_cover(g).h2_invariants


def test_hom_based_extension(cat):
    g, h = cat["SG256_8129"], cat["SG128_1376"]
    alpha = homomorphism(g, h, [h.generators[i] for i in range(7)] + [h.generators[4]])
    ext = central_extension_from_hom(g, alpha)
    assert ext.sigma.order == 2
    assert ext.sigma_in_derived
    assert thm41_check(ext).holds
