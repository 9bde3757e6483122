import math
import random
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import RKM_LARGER, GenericView, cyclic_product, rkm
from twogroups.catalog import parse_catalog
from twogroups.homology import cover_presentation
from twogroups.ktheory import h1_wh_prime
from twogroups.linalg import smith_normal_form
from twogroups.oracles import TableGroup, pc_to_table
from twogroups.pcgroup import (
    PcError,
    PcGroup,
    ScaleError,
    _lexkey,
    _TailedGroup,
    abelian_invariants,
    abelianization,
    center_span,
    central_lift,
    central_quotient,
    conjugacy_classes,
    conjugate_to_inverse_witness,
    homomorphism,
    standard_subgroups,
    subgroup,
    subquotient_invariants,
    trivial_subgroup,
    wedge_pairs,
)

RNG_SEED = 424242
COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"


def test_collect_known_words(cat):
    g = cat["SG256_8177"]
    # [x1, x2] = x5 and x2^2 = x5 x6
    assert g.collect([(1, -1), (2, -1), (1, 1), (2, 1)]) == g.element_from_indices([5])
    assert g.collect([(2, 1), (2, 1)]) == g.element_from_indices([5, 6])
    assert g.collect([]) == 0


def test_collect_is_monoid_hom(cat):
    rng = random.Random(RNG_SEED)
    for name in ["C8", "Q8", "SG256_9039"]:
        g = cat[name]
        for _ in range(300):
            w1 = [(rng.randrange(1, g.n + 1), rng.randrange(-2, 3)) for _ in range(4)]
            w2 = [(rng.randrange(1, g.n + 1), rng.randrange(-2, 3)) for _ in range(4)]
            assert g.collect(w1 + w2) == g.mult(g.collect(w1), g.collect(w2))


def test_collect_rejects_bad_index(cat):
    with pytest.raises(PcError):
        cat["C4"].collect([(3, 1)])


def test_collect_matches_per_letter_powers(cat):
    # collect reads each x_i^e from a memo on the group; the oracle collects
    # the same word letter by letter through power, on fast and generic
    # groups, and an index out of range still raises once the memo is warm
    rng = random.Random(RNG_SEED + 1)
    covers = parse_catalog(COVERS_CAT.read_text())
    groups = [cat[name] for name in ["C8", "Q8", "SG128_1376", "G16384"]]
    groups += [GenericView(cat["SG256_8177"])] + covers
    assert {g.is_fast for g in groups} == {True, False}
    for g in groups:
        for _ in range(200):
            word = [(rng.randrange(1, g.n + 1), rng.choice([-3, -2, -1, 1, 2, 3]))
                    for _ in range(rng.randrange(0, 9))]
            expect = 0
            for gen, exp in word:
                expect = g.mult(expect, g.power(1 << (gen - 1), exp))
            assert g.collect(word) == expect, (g.name, word)
        for bad in [0, g.n + 1, -1]:
            with pytest.raises(PcError, match="out of range"):
                g.collect([(1, 1), (bad, 1)])


def test_element_wrapper(cat):
    from twogroups.pcgroup import Element

    g = cat["Q8"]
    a = Element(g, g.generators[0])
    b = Element(g, g.generators[1])
    prod = a * b
    assert prod.bits == g.mult(a.bits, b.bits)
    assert a.exps == (1, 0, 0)
    assert (a * a.inverse()).bits == 0
    assert str(Element(g, 0)) == "1"


def generic_copy(group):
    """The same presentation on the collector alone: with neither the fast
    path nor the top table, every operation goes through the generic
    collector and its formulas."""
    slow = PcGroup(group.name, group.n, group.powers, group.comms, validate=False)
    slow._fast, slow._top = False, None
    assert not slow.is_fast and slow._top is None
    return slow


def test_generic_and_fast_collector_agree(cat):
    # x1^2 = x2, x3^2 = x4, [x1, x3] = x4: the relation-bearing x1 and x3
    # have the relation-free x2 between them, and x5 is free too
    gapped = PcGroup(
        "gapped", 5, [0b10, 0, 0b1000, 0, 0],
        [[0, 0, 0b1000, 0, 0]] + [[0] * 5 for _ in range(4)],
    )
    groups = [cat[name] for name in ["D8", "Q8", "C2xC4", "SG128_1376", "SG256_8177"]]
    groups += [rkm(k, 4, 100 + k) for k in (3, 8, 9, 12, 16)]
    groups += [gapped, cyclic_product([1] * 5)]
    # table lengths: one block of 2^(2h) up to h = 8, then three of 2^(2w),
    # and none at h = 0
    shapes = {
        "D8": [1 << 4], "Q8": [1 << 4], "C2xC4": [1 << 4],
        "SG128_1376": [1 << 8], "SG256_8177": [1 << 8],
        "R3_4_s103": [1 << 6], "R8_4_s108": [1 << 16], "R9_4_s109": [1 << 10] * 3,
        "R12_4_s112": [1 << 12] * 3, "R16_4_s116": [1 << 16] * 3,
        "gapped": [1 << 6], "C2xC2xC2xC2xC2": [],
    }
    rng = random.Random(RNG_SEED)
    for g in groups:
        assert g.is_fast, g.name
        assert [len(table) for table, _, _ in g._blocks] == shapes[g.name]
        slow = generic_copy(g)
        for _ in range(200):
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            assert g.mult(a, b) == g._mult(a, b), g.name
            assert g.square(a) == slow.square(a) == g.mult(a, a), g.name
            assert g.inv(a) == slow.inv(a), g.name
            assert g.mult(a, g.inv(a)) == 0, g.name
            assert g.comm(a, b) == slow.comm(a, b), g.name
            assert g.conj(a, b) == slow.conj(a, b), g.name


def test_form_tables_hold_64_bit_words():
    assert cyclic_product([1] * 65).mult(1, 1 << 64) == 1 | 1 << 64
    with pytest.raises(ScaleError):
        PcGroup("C4xC2^64", 66, [2] + [0] * 65, [[0] * 66 for _ in range(66)])


def test_top_table_matches_collector(cat, small_family):
    # the frozen benchmark covers, the cover presentations of small groups
    # and of the 2^10 R(k,m), the covers of covers, and groups whose tail
    # is not elementary, each presentation once; every pair up to 2^7
    # elements; above, every top-table key (a_t, b_t) with seeded tail
    # bits, and 20k seeded pairs
    covers = {g.name: g for g in parse_catalog(COVERS_CAT.read_text())}
    tops = {name: g._top_bits for name, g in covers.items() if g._top is not None}
    assert tops == {
        "Cover_R2_3_s1203": 5, "Cover_R3_3_s303": 6, "Cover_SG128_1376": 7,
        "Cover_R3_4_s304": 7,
    }
    assert cover_presentation(cat["G16384"]).cover._top is None
    # x9^2 = x10 in the tail; C8 and C8 x C4 are all central, so they take
    # the elementary tail (x3; x5); the covers of C4 x C4 and C8 x C4 have
    # H_2 = C4, so a powered tail generator
    abelian = [cat["C8"], cyclic_product([3, 2])]
    assert [(g._top_bits, g._top_xor) for g in abelian] == [(2, True), (4, True)]
    powered = [covers["Cover_R3_3_s303"]]
    powered += [cover_presentation(cyclic_product(e)).cover for e in ([2, 2], [3, 2])]
    assert [(g._top_bits, g._top_xor) for g in powered] == [(6, False), (4, False), (5, False)]
    groups = list(covers.values()) + small_family + abelian + powered
    groups += [cover_presentation(g).cover for g in small_family + [rkm(*a) for a in RKM_LARGER]]
    # the rest run the collector itself, so there is nothing to compare
    groups = {(g.powers, g.comms): g for g in groups if g._top is not None}.values()
    assert len(groups) >= 14
    rng = random.Random(RNG_SEED)
    for g in groups:
        slow = generic_copy(g)
        s, mask, tail = g._top_bits, (1 << g._top_bits) - 1, g.order >> g._top_bits
        if g.order <= 1 << 7:
            pairs = [(a, b) for a in g.elements() for b in g.elements()]
        else:
            pairs = [
                (key >> s | rng.randrange(tail) << s, key & mask | rng.randrange(tail) << s)
                for key in range(1 << 2 * s)
            ]
            pairs += [(rng.randrange(g.order), rng.randrange(g.order)) for _ in range(20000)]
        for a, b in pairs:
            assert g.mult(a, b) == slow.mult(a, b), g.name
            assert g.conj(a, b) == slow.conj(a, b), g.name
            assert g.comm(a, b) == slow.comm(a, b), g.name
        for a in {a for a, _ in pairs}:
            assert g.square(a) == slow.square(a), g.name
            assert g.inv(a) == slow.inv(a), g.name
        # the pairs filled every entry: no -1 sentinel is left, each entry is
        # the collector's a_t b_t, and in the conjugation table h_t^-1 g_t h_t
        top, conj = g._top, g._conj_top
        assert len(top) == len(conj) == 1 << 2 * s and min(min(top), min(conj)) >= 0, g.name
        for key, r in enumerate(top):
            assert r == slow._mult(key >> s, key & mask), g.name
        for key, c in enumerate(conj):
            gt, ht = key >> s, key & mask
            assert c == slow.mult(slow.mult(slow.inv(ht), gt), ht), g.name
        assert _TailedGroup(g)._top is None, g.name


def test_top_tables_hold_64_bit_words_from_32_generators():
    # x1^2 = x2, x2^2 = [x1, x3] = x33: a top of 3 bits on 33 generators;
    # few pairs, since the collector alone is slow on 33-bit elements
    n = 33
    comms = [[0] * n for _ in range(n)]
    comms[0][2] = 1 << 32
    wide = PcGroup("wide", n, [0b10, 1 << 32] + [0] * (n - 2), comms)
    assert wide._top_bits == 3 and wide._top.typecode == "q"
    slow = generic_copy(wide)
    rng = random.Random(RNG_SEED)
    for _ in range(300):
        a, b = rng.randrange(wide.order), rng.randrange(wide.order)
        assert wide.mult(a, b) == slow.mult(a, b)
        assert wide.conj(a, b) == slow.conj(a, b)
        assert wide.inv(a) == slow.inv(a)
    assert wide._conj_top.typecode == "q" and max(wide._conj_top) >= 1 << 32


def test_conjugation_table_is_allocated_on_first_use():
    g = {g.name: g for g in parse_catalog(COVERS_CAT.read_text())}["Cover_R3_3_s303"]
    g.mult(g.inv(3), 5)
    assert g._top is not None and g._conj_top is None
    g.conj(3, 5)
    assert g._conj_top.typecode == g._top.typecode == "i"
    assert len(g._conj_top) == len(g._top) and g._conj_top.count(-1) == len(g._top) - 1


def test_tabulated_cover_walks_match_the_collector():
    # Cover_R3_3_s303 has tables over its powered tail: the class walks and
    # the witnesses on it are those of the collector alone
    g = {g.name: g for g in parse_catalog(COVERS_CAT.read_text())}["Cover_R3_3_s303"]
    slow = generic_copy(g)
    assert g._top is not None
    assert conjugacy_classes(g) == conjugacy_classes(slow)
    assert list(wedge_pairs(g)) == list(wedge_pairs(slow))
    fast_wh, slow_wh = h1_wh_prime(g), h1_wh_prime(slow)
    assert fast_wh.witnesses == slow_wh.witnesses and fast_wh.rank == slow_wh.rank


def test_top_table_keeps_validation():
    good = {g.name: g for g in parse_catalog(COVERS_CAT.read_text())}["Cover_R2_3_s1203"]
    # x3^2 = x6 instead of x6 x7; the central tail x6..x9 stays
    powers = list(good.powers)
    powers[2] ^= 1 << 6
    bad = PcGroup("bad", good.n, powers, good.comms, validate=False)
    assert good._top is not None and bad._top is not None
    assert good.consistency_failures() == generic_copy(good).consistency_failures() == []
    assert bad.consistency_failures() == generic_copy(bad).consistency_failures() == [
        (2, 2, 1), (2, 1, 1)
    ]
    with pytest.raises(PcError):
        PcGroup("bad", good.n, powers, good.comms, validate=True)


def test_all_normal_forms_distinct_and_closed(cat):
    g = cat["Q8"]
    seen = {g.mult(a, b) for a in g.elements() for b in g.elements()}
    assert seen == set(range(g.order))


def quaternion_table_group() -> TableGroup:
    """Q8 as literal quaternions."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a: str, b: str) -> str:
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        basic = {
            ("1", "1"): (1, "1"),
            ("1", "i"): (1, "i"), ("i", "1"): (1, "i"),
            ("1", "j"): (1, "j"), ("j", "1"): (1, "j"),
            ("1", "k"): (1, "k"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
        }
        s, r = basic[(a, b)]
        sign *= s
        return r if sign == 1 else "-" + r

    table = {(a, b): mul(a, b) for a in units for b in units}
    return TableGroup("Q8-units", units, table)


def table_class_count(group: TableGroup) -> int:
    """The number of conjugacy classes of a multiplication-table group."""
    seen = set()
    count = 0
    for g in group.element_names:
        if g in seen:
            continue
        seen |= {group.mult(group.mult(group.inv(h), g), h) for h in group.element_names}
        count += 1
    return count


def test_conjugacy_matches_table_oracle(cat):
    q8 = cat["Q8"]
    classes = conjugacy_classes(q8)
    assert len(classes) == 5
    assert table_class_count(quaternion_table_group()) == 5
    assert sum(len(c.elements) for c in classes) == q8.order
    for c in classes:
        assert len(c.elements) * c.centralizer_order == q8.order


def test_lexkey_matches_exponent_tuple_loop():
    # the key packs (e_1, ..., e_n) with e_1 most significant
    def loop_key(bits, n):
        key = 0
        for i in range(n):
            key = (key << 1) | (bits >> i & 1)
        return key

    rng = random.Random(RNG_SEED)
    for n in range(33):
        values = range(1 << n) if n <= 10 else [rng.getrandbits(n) for _ in range(500)]
        for bits in list(values) + [0, (1 << n) - 1]:
            assert _lexkey(bits, n) == loop_key(bits, n), (bits, n)


def test_fast_classes_match_generic_orbit_walk(small_family):
    groups = [g for g in small_family if g.is_fast] + [rkm(*a) for a in RKM_LARGER]
    for g in groups:
        fast = conjugacy_classes(g)
        slow = conjugacy_classes(GenericView(g))
        assert [(c.rep, c.elements, c.centralizer_order) for c in fast] == [
            (c.rep, c.elements, c.centralizer_order) for c in slow
        ], g.name
        center = standard_subgroups(g).center
        assert center.elements == standard_subgroups(GenericView(g)).center.elements
        assert 1 << center_span(g).rank == center.order, g.name
        assert all(center_span(g).reduce(z) == 0 for z in center.elements), g.name


def test_abelian_classes_are_singletons(cat):
    for name in ["C8", "C2xC4"]:
        classes = conjugacy_classes(cat[name])
        assert all(len(c.elements) == 1 for c in classes)


def test_x1_conjugate_to_inverse_in_1377(cat):
    g = cat["SG128_1377"]
    x1 = g.generators[0]
    # (x2 x3 x4) conjugates x1 to its inverse
    w = g.element_from_indices([2, 3, 4])
    assert g.mult(g.mult(w, x1), g.inv(w)) == g.inv(x1)
    classes = conjugacy_classes(g)
    cls = next(c for c in classes if x1 in c.elements)
    assert g.inv(x1) in cls.elements
    h = conjugate_to_inverse_witness(g, x1)
    assert h is not None and g.conj(x1, h) == g.inv(x1)


def test_subgroup_examples(cat):
    g = cat["SG256_8177"]
    sigma = subgroup(g, [g.element_from_indices([7, 8])])
    assert sigma.order == 2 and sigma.is_central
    assert trivial_subgroup(g).order == 1
    q8 = cat["Q8"]
    closure = subgroup(q8, [q8.generators[0]], normal_closure=True)
    assert closure.order == 4
    # oracle: the cyclic subgroup <x1> = {1, x1, x1^2, x1^3} is already normal
    tbl = pc_to_table(q8)
    plain = subgroup(q8, [q8.generators[0]])
    assert plain.elements == closure.elements


def _brute_closure(g, gens, normal):
    # fixpoint of all products, and of all conjugates by all elements
    elems = {g.identity, *gens}
    while True:
        new = {g.mult(a, b) for a in elems for b in elems}
        if normal:
            new |= {g.conj(a, x) for a in elems for x in g.elements()}
        if new <= elems:
            return elems
        elems |= new


def test_subgroup_matches_brute_force_closure(small_family):
    rng = random.Random(RNG_SEED)
    for g in small_family:
        for _ in range(3):
            gens = [rng.randrange(g.order) for _ in range(rng.randint(1, 3))]
            for normal in (False, True):
                sub = subgroup(g, gens, normal_closure=normal)
                assert sub.elements == _brute_closure(g, gens, normal), (g.name, gens)
                if not normal:  # the kept generators are a subsequence of gens
                    it = iter(gens)
                    assert all(k in it for k in sub.gens), (g.name, gens)
                for i, k in enumerate(sub.gens):
                    assert k not in _brute_closure(g, sub.gens[:i], False), (g.name, gens)
                assert subgroup(g, sub.gens).elements == sub.elements, (g.name, gens)


def test_standard_subgroups(cat):
    g = cat["SG256_8177"]
    std = standard_subgroups(g)
    expect = subgroup(g, [g.element_from_indices([i]) for i in [5, 6, 7, 8]])
    assert std.center.elements == expect.elements
    assert std.derived.elements == expect.elements
    assert std.center_cap_derived.elements == expect.elements

    big = cat["G16384"]
    std = standard_subgroups(big)
    zgens = [big.element_from_indices([i]) for i in [8, 9, 10]]
    assert std.derived.elements == subgroup(big, zgens).elements
    assert std.derived.order == 8
    rng = random.Random(RNG_SEED)
    for _ in range(1000):
        a, b = rng.randrange(big.order), rng.randrange(big.order)
        assert big.comm(a, b) in std.derived.elements

    ab = cat["C2xC4"]
    std = standard_subgroups(ab)
    assert std.derived.order == 1 and std.center.order == ab.order


def test_quotient_examples(cat):
    g = cat["SG256_8177"]
    t = g.element_from_indices([7, 8])
    p = central_quotient(g, t)
    q = p.target
    assert isinstance(q, PcGroup) and q.n == g.n - 1 and q.order * 2 == g.order
    assert q.consistency_failures() == []
    assert p.is_surjective()
    for h in q.elements():
        lift = central_lift(t, h)
        other = g.mult(lift, t)
        assert p(lift) == p(other) == h
        # the coset's lexicographically least element
        assert g.lexkey(lift) < g.lexkey(other)


def test_quotient_projection_random_pairs(cat):
    rng = random.Random(RNG_SEED)
    g = cat["SG256_8177"]
    p = central_quotient(g, g.element_from_indices([7, 8]))
    q = p.target
    for _ in range(2000):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        assert p(g.mult(a, b)) == q.mult(p(a), p(b))


def test_quotient_requires_normal(cat):
    # <t> must be central of order two: a reflection of D8 is not normal, a
    # generator of C4 is central of order four, and 1 generates nothing
    d8, c4 = cat["D8"], cat["C4"]
    reflection = d8.generators[0]
    assert d8.conj(reflection, d8.generators[1]) not in subgroup(d8, [reflection])
    for group, t in [(d8, reflection), (c4, c4.generators[0]), (d8, 0), (d8, d8.order)]:
        with pytest.raises(PcError):
            central_quotient(group, t)


def test_quotient_kernel_is_sigma(small_family):
    # certificate: for every central involution t the verified projection
    # has kernel exactly {1, t}, and the pc quotient has |G|/2 elements
    count = 0
    for g in small_family:
        for t in standard_subgroups(g).center.elements:
            if t and g.square(t) == 0:
                p = central_quotient(g, t)
                assert p.kernel().elements == {0, t}, (g.name, t)
                assert p.target.order * 2 == g.order
                count += 1
    assert count == 83


def test_abelianization_values(cat):
    ab = abelianization(cat["SG128_1377"])
    assert ab.invariants == (2, 2, 2, 2)
    ab = abelianization(cat["C2xC2xC2"])
    assert ab.invariants == (2, 2, 2)
    big = abelianization(cat["G16384"])
    assert big.invariants == (2, 2, 2, 4, 4, 4, 4)


def test_abelianization_coordinates_certificate(small_family):
    # seeded random pairs over small groups, the 2^10 R(k,m) and the frozen
    # class-3 covers of the benchmark (2^9..2^12, generic collector)
    covers = parse_catalog(COVERS_CAT.read_text())
    rng = random.Random(RNG_SEED)
    for g in small_family + [rkm(*a) for a in RKM_LARGER] + covers:
        ab = abelianization(g)
        d = ab.invariants
        for _ in range(200):
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            ca, cb = ab.coordinates(a), ab.coordinates(b)
            want = tuple((x + y) % m for x, y, m in zip(ca, cb, d))
            assert ab.coordinates(g.mult(a, b)) == want, g.name
        for j, f in enumerate(ab.factor_gens):
            assert ab.coordinates(f) == tuple(int(i == j) for i in range(len(d))), g.name
        assert math.prod(d) * ab.derived.order == g.order, g.name
        whole = subgroup(g, g.generators)
        assert subquotient_invariants(g, whole, ab.derived) == d, g.name
        # the routine behind `fingerprint` against the order-profile oracle
        assert abelian_invariants(g) == d, g.name


def test_abelianization_certificate_rejects_wrong_data(cat):
    g = cat["G16384"]
    ab = abelianization(g)
    assert ab.certificate_failure() is None
    rows = [list(r) for r in ab.gen_coords]
    rows[0][-1] += 1  # [x1] one step off in a Z/4 factor: 2[x1] != [x1^2]
    bad = replace(ab, gen_coords=tuple(map(tuple, rows)))
    assert "relation x1^2" in bad.certificate_failure()
    swapped = replace(ab, factor_gens=ab.factor_gens[::-1])
    assert "unit vector" in swapped.certificate_failure()
    too_small = replace(ab, derived=trivial_subgroup(g))
    assert "multiply" in too_small.certificate_failure()


def test_abelianization_snf_oracle_g16384(cat):
    # relation matrix of the big group written out by hand:
    # x_i^2 = z_i, z_i^2 = 1, and the three commutator values z1, z2, z3
    rows = []
    for i in range(7):
        row = [0] * 14
        row[i] = 2
        row[7 + i] = -1
        rows.append(row)
    for i in range(7):
        row = [0] * 14
        row[7 + i] = 2
        rows.append(row)
    for z in [7, 8, 9]:
        row = [0] * 14
        row[z] = -1
        rows.append(row)
    diag, _, _ = smith_normal_form(rows, 2 * cat["G16384"].order)
    invariants = sorted(d for d in diag if d not in (0, 1))
    assert invariants == [2, 2, 2, 4, 4, 4, 4]


def test_homomorphism_examples(cat):
    g = cat["SG256_8129"]
    h = cat["SG128_1376"]
    ident = homomorphism(g, g, list(g.generators))
    assert all(ident(x) == x for x in g.generators)
    alpha = homomorphism(g, h, [h.generators[i] for i in range(7)] + [h.generators[4]])
    assert alpha.is_surjective()
    ker = alpha.kernel()
    assert ker.order == 2
    assert g.element_from_indices([5, 8]) in ker.elements
    c4, c2 = cat["C4"], cat["C2"]
    down = homomorphism(c4, c2, [c2.generators[0], 0])
    assert down.is_surjective()


def test_homomorphism_rejects_bad_images(cat):
    g, h = cat["Q8"], cat["C2xC2"]
    # x1^2 = x3 cannot map to a square-free image if x3 image is wrong
    with pytest.raises(PcError) as err:
        homomorphism(g, h, [h.generators[0], h.generators[1], h.generators[0]])
    assert "x1^2" in str(err.value) or "[x" in str(err.value)


def test_associativity_random_triples(cat):
    rng = random.Random(RNG_SEED)
    for name in ["C8", "SG256_9039", "G16384"]:
        g = cat[name]
        for _ in range(1500):
            a, b, c = (rng.randrange(g.order) for _ in range(3))
            assert g.mult(g.mult(a, b), c) == g.mult(a, g.mult(b, c))
