import dataclasses
import json
import random
from pathlib import Path

import pytest

from conftest import RKM, RKM_LARGER, SHIPPED_FAST, GenericView, commutator_scan, rkm
from twogroups.catalog import fingerprint, parse_catalog
from twogroups.homology import schur_cover
from twogroups import homology
from twogroups.ktheory import (
    CentralExtensionData,
    central_extension,
    central_extension_from_hom,
    commutator_values,
    h1_wh_prime,
    search_central_extensions,
    sk1,
    thm41_check,
    thm42_check,
)
from twogroups.linalg import iter_bits, smith_normal_form
from twogroups.pcgroup import (
    PcGroup,
    _inverse_conjugator_fast,
    center_transversal,
    derived_subgroup,
    homomorphism,
    standard_subgroups,
    subgroup,
    tails_rows,
)

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"

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
    c = data.c_subgroup
    assert all(g.conj(h, x) in c.elements for h in c.gens for x in g.generators)
    assert data.s_subgroup.order == data.c_subgroup.order << data.rank
    for a, h in data.witnesses:
        assert g.conj(a, h) == g.inv(a)


def test_h1_wh_prime_fast_matches_generic(cat):
    names = ["SG128_1376", "SG128_1377", "SG256_9039", "D8", "Q8", "C2xC4"]
    groups = [cat[name] for name in names] + [rkm(k, m, seed) for k, m, seed in RKM]
    for g in groups:
        name = g.name
        fast = h1_wh_prime(g)
        q = GenericView(g)
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
        assert subgroup(g, data.s_subgroup.gens).elements == s_elems, g.name
        assert data.c_subgroup.elements == c.elements, g.name
        assert data.s_subgroup.order == c.order << data.rank, g.name
        assert {a for a, _ in data.witnesses} == inverted - der.elements, g.name
        for a, h in data.witnesses:
            assert g.conj(a, h) == g.inv(a), g.name


def test_h1_wh_prime_coset_witness_matches_per_element_solve(small_family):
    # the solve is made once per coset of [G,G] and reused; every g in
    # S - [G,G] must get what its own solve gives
    groups = [g for g in small_family if g.is_fast] + [rkm(*a) for a in RKM_LARGER]
    for g in groups:
        data = h1_wh_prime(g)
        der = derived_subgroup(g)
        per_element = []
        for a in g.elements():
            if a in data.s_subgroup.elements and a not in der.elements:
                h = _inverse_conjugator_fast(g, a)
                if h is not None:
                    per_element.append((a, h))
        assert data.witnesses == per_element, g.name


def test_sk1_values(cat):
    assert sk1(cat["SG128_1376"]).invariants == (2,)
    assert sk1(cat["SG128_1377"]).invariants == (2,)
    for name in ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4"]:
        assert sk1(cat[name]).invariants == (), name


def test_sk1_omega_membership(cat):
    data = sk1(cat["SG128_1376"])
    stem = schur_cover(cat["SG128_1376"]).stem_part
    hits = [x for x in stem.sorted_elements() if data.omega_nontrivial(x)]
    # exactly the non-wedge half of the stem part maps to the nonzero class
    assert len(hits) == stem.order - data.wedge_order


def test_extension_criteria_on_catalog_towers(cat):
    for cover_name, sigma in [("SG256_8177", [7, 8]), ("SG256_8129", [5, 8])]:
        ext = central_extension(cat[cover_name], sigma)
        assert thm41_check(ext).holds
        assert thm42_check(ext).holds


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


def test_thm42_pinned_on_every_central_involution(cat):
    # verdict and counterexample of the lifting criterion for every central
    # involution t of every shipped group of order <= 2^8: 77 cases, 54 of
    # them with a counterexample, recorded by the coset-table quotient
    pinned = json.loads((Path(__file__).parent / "thm42_golden.json").read_text())
    assert set(pinned) == {name for name, g in cat.items() if g.order <= 256}
    for name, rows in pinned.items():
        g = cat[name]
        involutions = [t for t in standard_subgroups(g).center.sorted_elements()
                       if t and g.square(t) == 0]
        assert [[b + 1 for b in iter_bits(t)] for t in involutions] == [r[0] for r in rows]
        for word, holds, counterexample in rows:
            res = thm42_check(central_extension(g, word))
            assert res.holds == holds, (name, word)
            assert (res.witness or {}).get("counterexample") == counterexample, (name, word)


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
    # every search-ext entry passes thm41 (sigma in [G,G], its generator not
    # a commutator), which implies that SK1 of the quotient is nonzero; sk1
    # runs on the pc quotient itself, not on a catalog representative.
    # search-ext G16384 has no entries (a golden record), so it adds no case.
    expected = {"SG256_8129": [(2,)], "SG256_8177": [(2,)], "R4_4_s406": [(2, 2)]}
    for g in [cat["SG256_8129"], cat["SG256_8177"], rkm(4, 4, 406)]:
        entries = search_central_extensions(g)
        for e in entries:
            assert thm41_check(e.extension).holds, g.name
        assert [sk1(e.extension.quotient).invariants for e in entries] == expected[g.name]


def test_commutator_values_match_bruteforce(cat):
    # the second input, the cover of the cover of D8, is on the generic
    # collector; every key is a commutator, and the central keys are exactly
    # the central commutators over all pairs of elements
    twice = schur_cover(schur_cover(cat["D8"]).cover).cover
    assert not twice.is_fast
    for g in [cat["SG128_1376"], twice]:
        brute = {g.comm(a, b) for a in g.elements() for b in g.elements()}
        center = set(standard_subgroups(g).center.sorted_elements())
        keys = set(commutator_values(g, center_transversal(g)))
        assert keys <= brute, g.name
        assert keys & center == brute & center, g.name


def test_commutator_values_keep_the_first_pair_in_scan_order(cat):
    # thm41_check prints the pair: the first (a, b) over the center
    # transversal, a outer, whose commutator is the value; commutator_values
    # keeps its a for each central value
    for g in [cat["SG256_8177"], schur_cover(schur_cover(cat["D8"]).cover).cover]:
        elems = center_transversal(g)
        first = {}
        for a in elems:
            for b in elems:
                first.setdefault(g.comm(a, b), (a, b))
        values = commutator_values(g, elems)
        center = standard_subgroups(g).center.sorted_elements()
        central = [t for t in center if t in first]
        assert central, g.name
        assert {t: values[t] for t in central} == {t: first[t][0] for t in central}, g.name
        for t in central:
            res = thm41_check(CentralExtensionData(g, t, None, True))
            assert res.witness["pair"] == [g.element_str(x) for x in first[t]], g.name


def test_commutator_values_and_thm41_pairs_match_the_pair_scan(cat, small_family):
    # for every central t: membership among the keys, the first g, and the
    # pair thm41_check prints, against the scan; non-central values are not
    # compared, since the generic pass skips classes an earlier walk listed
    groups = small_family + [rkm(*a) for a in RKM_LARGER] + [cat[n] for n in SHIPPED_FAST]
    groups += [GenericView(g) for g in groups if g.is_fast and g.order <= 1 << 10]
    groups += parse_catalog(COVERS_CAT.read_text())
    assert sum(not g.is_fast for g in groups) > 40
    for g in groups:
        scan = commutator_scan(g)
        first = commutator_values(g, center_transversal(g))
        for t in standard_subgroups(g).center.sorted_elements():
            pair = scan.get(t)
            assert first.get(t) == (pair[0] if pair else None), (g.name, t)
            res = thm41_check(CentralExtensionData(g, t, None, True))
            assert res.holds == (pair is None), (g.name, t)
            if pair is not None:
                assert res.witness["pair"] == [g.element_str(x) for x in pair], (g.name, t)


def test_search_ext_answers_at_2_20_without_a_pair_scan():
    # |G/Z(G)|^2 is 2^24 and 2^20 pairs here; one pass over the
    # transversal finds every central commutator
    for k, m, seed in [(12, 8, 1208), (10, 10, 1010)]:
        assert search_central_extensions(rkm(k, m, seed)) == [], (k, m)


def test_center_transversal_matches_generic_walk(cat, small_family):
    groups = [g for g in small_family if g.is_fast] + [rkm(*a) for a in RKM_LARGER]
    for g in groups + [cat["G16384"]]:
        assert center_transversal(g) == center_transversal(GenericView(g)), g.name


def test_thm42_agrees_on_the_hom_and_the_word_extension(cat):
    g, h = cat["SG256_8129"], cat["SG128_1376"]
    by_hom = central_extension_from_hom(
        g, homomorphism(g, h, [h.generators[i] for i in range(7)] + [h.generators[4]])
    )
    by_word = central_extension(g, [b + 1 for b in iter_bits(by_hom.t)])
    assert thm42_check(by_word).as_dict() == thm42_check(by_hom).as_dict()


def test_extension_record_is_frozen_with_four_fields(cat):
    ext = central_extension(cat["SG256_8129"], [5, 8])
    assert [f.name for f in dataclasses.fields(ext)] == [
        "cover_group", "t", "alpha", "sigma_in_derived"
    ]
    with pytest.raises(dataclasses.FrozenInstanceError):
        ext.t = 0


def test_sk1_invariant_under_tail_permutation(cat, monkeypatch):
    # the SK1 answer only depends on the Smith form of the consistency rows,
    # which is permutation invariant
    rng = random.Random(12)
    g = cat["SG128_1377"]
    rows = tails_rows(g)
    diag, _, _ = smith_normal_form(rows, 2 * g.order)
    torsion = sorted(d for d in diag if d not in (0, 1))
    shuffled = [list(r) for r in rows]
    rng.shuffle(shuffled)
    diag2, _, _ = smith_normal_form(shuffled, 2 * g.order)
    assert sorted(d for d in diag2 if d not in (0, 1)) == torsion
    # regenerate the cover with the consistency relations in shuffled order;
    # the cover presentation changes but SK1 must not
    plain = sk1(g)
    calls = []

    def shuffled_rows(group):
        calls.append(group)
        out = tails_rows(group)
        random.Random(99).shuffle(out)
        return out

    monkeypatch.setattr(homology, "tails_rows", shuffled_rows)
    cover = schur_cover(g)
    assert calls == [g]
    assert cover.cover.comms != plain.cover.cover.comms
    regenerated = sk1(g, cover)
    assert regenerated.invariants == plain.invariants
    assert regenerated.cover.h2_invariants == schur_cover(g).h2_invariants
    assert len(calls) == 2


def test_hom_based_extension(cat):
    g, h = cat["SG256_8129"], cat["SG128_1376"]
    alpha = homomorphism(g, h, [h.generators[i] for i in range(7)] + [h.generators[4]])
    ext = central_extension_from_hom(g, alpha)
    assert ext.t == g.element_from_indices([5, 8])
    assert ext.sigma_in_derived
    assert thm41_check(ext).holds
