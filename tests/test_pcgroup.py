import random

import pytest

from twogroups.linalg import smith_normal_form
from twogroups.oracles import pc_to_table, quaternion_table_group
from twogroups.pcgroup import (
    PcError,
    abelianization,
    conjugacy_classes,
    conjugate_to_inverse_witness,
    homomorphism,
    quotient,
    standard_subgroups,
    subgroup,
    trivial_subgroup,
)

RNG_SEED = 424242


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


def test_generic_and_fast_collector_agree(cat):
    rng = random.Random(RNG_SEED)
    for name in ["D8", "Q8", "C2xC4", "SG128_1376", "SG256_8177"]:
        g = cat[name]
        assert g.is_fast
        for _ in range(300):
            a, b = rng.randrange(g.order), rng.randrange(g.order)
            assert g._mult(a, b) == g.mult(a, b)
        for _ in range(100):
            a = rng.randrange(g.order)
            assert g.mult(a, g.inv(a)) == 0
            assert g.square(a) == g.mult(a, a)


def test_all_normal_forms_distinct_and_closed(cat):
    g = cat["Q8"]
    seen = {g.mult(a, b) for a in g.elements() for b in g.elements()}
    assert seen == set(range(g.order))


def test_conjugacy_matches_table_oracle(cat):
    q8 = cat["Q8"]
    classes = conjugacy_classes(q8)
    assert len(classes) == 5
    oracle = quaternion_table_group()
    assert oracle.conjugacy_class_count() == 5
    assert sum(len(c.elements) for c in classes) == q8.order
    for c in classes:
        assert len(c.elements) * c.centralizer_order == q8.order


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
    assert sigma.order == 2 and sigma.is_central and sigma.is_normal
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
    q = quotient(g, subgroup(g, [g.element_from_indices([7, 8])]))
    assert q.order == 128
    assert g.order == q.order * 2
    # trivial and full quotients
    q1 = quotient(g, trivial_subgroup(g))
    assert q1.order == g.order
    qfull = quotient(g, subgroup(g, list(g.generators)))
    assert qfull.order == 1


def test_quotient_projection_random_pairs(cat):
    rng = random.Random(RNG_SEED)
    g = cat["SG256_8177"]
    q = quotient(g, subgroup(g, [g.element_from_indices([7, 8])]))
    p = q.projection
    for _ in range(2000):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        assert p(g.mult(a, b)) == q.mult(p(a), p(b))


def test_quotient_requires_normal(cat):
    d8 = cat["D8"]
    reflection = subgroup(d8, [d8.generators[0]])
    assert not reflection.is_normal
    with pytest.raises(PcError):
        quotient(d8, reflection)


def test_abelianization_values(cat):
    ab = abelianization(cat["SG128_1377"])
    assert ab.invariants == (2, 2, 2, 2)
    ab = abelianization(cat["C2xC2xC2"])
    assert ab.invariants == (2, 2, 2)
    big = abelianization(cat["G16384"])
    assert big.invariants == (2, 2, 2, 4, 4, 4, 4)


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
    diag, _, _ = smith_normal_form(rows)
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
