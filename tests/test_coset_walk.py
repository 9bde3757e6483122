"""`h1_wh_prime` walks the [G,G]-cosets of S, not the elements of S.

The oracles are the code it replaced, kept in conftest: `element_walk_h1`,
one step per element of S, and `span_inverse_conjugator`, the `Gf2Span`
solve that the packed-row `_inverse_conjugator_fast` replaced.  The rank,
S and C (generators and induced sequences) and the whole witness list
must be the same on the fast path.  `GenericView` copies must still take
the generic branch, which lifts its witnesses through the central tail:
the same rank, S and C, and a valid witness for the same elements.
"""

import random

from conftest import (
    CENTRAL_BLOCK,
    RKM,
    RKM_LARGER,
    SHIPPED_FAST,
    GenericView,
    element_walk_h1,
    relabel,
    rkm,
    span_inverse_conjugator,
)
from twogroups import ktheory, pcgroup
from twogroups.ktheory import h1_wh_prime
from twogroups.pcgroup import _inverse_conjugator_fast, derived_subgroup


def assert_matches_element_walk(data, group):
    # a generic group's C comes from other generators and its witnesses
    # from the class lift: the same subgroup, and a valid witness for each
    # element that has one
    rank, s_sub, c_sub, witnesses = element_walk_h1(group)
    name = group.name
    assert data.rank == rank, name
    assert (data.s_subgroup.gens, data.s_subgroup.seq) == (s_sub.gens, s_sub.seq), name
    printed = data.as_dict()["witnesses"]
    assert "witnesses" not in vars(data), name  # as_dict lists none
    if group.is_fast:
        assert (data.c_subgroup.gens, data.c_subgroup.seq) == (c_sub.gens, c_sub.seq), name
        assert data.witnesses == witnesses, name
    else:
        assert data.c_subgroup.order == c_sub.order, name
        assert all(c in c_sub for c in data.c_subgroup.seq), name
        assert [a for a, _h in data.witnesses] == [a for a, _h in witnesses], name
        assert all(group.conj(a, h) == group.inv(a) for a, h in data.witnesses), name
    assert printed == [[group.element_str(a), group.element_str(h)]
                       for a, h in data.witnesses[:16]], name


def test_coset_walk_matches_element_walk(cat, small_family):
    groups = [g for g in small_family if g.is_fast]
    groups += [rkm(*args) for args in RKM_LARGER] + [cat[name] for name in SHIPPED_FAST]
    for name in CENTRAL_BLOCK:
        seeds = range(1) if cat[name].n > 8 else range(2)
        groups += [relabel(cat[name], random.Random(seed)) for seed in seeds]
    groups += [relabel(rkm(*args), random.Random(1)) for args in RKM + RKM_LARGER]
    assert all(g.is_fast for g in groups)
    for g in groups:
        assert_matches_element_walk(h1_wh_prime(g), g)


def test_generic_copies_walk_classes(cat, small_family, monkeypatch):
    # the generic rank reads the class records and lifts one witness per
    # coset of the central tail K, and walks no orbit
    solved = []
    witness = ktheory.conjugate_to_inverse_witness

    def counted_witness(group, g):
        solved.append(g)
        return witness(group, g)

    def no_orbit(*args, **kwargs):
        raise AssertionError("conjugacy_orbit on the generic branch")

    def no_solve(group, g):
        raise AssertionError(f"{group.name}: fast solve on the generic branch")

    monkeypatch.setattr(ktheory, "conjugate_to_inverse_witness", counted_witness)
    monkeypatch.setattr(ktheory, "conjugacy_orbit", no_orbit)
    monkeypatch.setattr(pcgroup, "conjugacy_orbit", no_orbit)
    monkeypatch.setattr(ktheory, "_inverse_conjugator_fast", no_solve)
    fast = [g for g in small_family if g.is_fast] + [rkm(*args) for args in RKM_LARGER]
    fast += [cat["SG256_9039"]]
    for g in fast + [g for g in small_family if not g.is_fast]:
        q = GenericView(g) if g.is_fast else g
        del solved[:]
        data = h1_wh_prime(q)
        assert_matches_element_walk(data, q)
        # one lift per K-coset, keyed by its member with tail 0; S = [G,G]
        # leaves nothing to solve
        mask = pcgroup._quotient(q)[0].order - 1
        assert len(set(solved)) == len(solved), g.name
        assert all(k == k & mask for k in solved), g.name
        assert bool(solved) == (data.s_subgroup.order > derived_subgroup(g).order), g.name


def test_packed_solve_matches_span_solve(cat, small_family):
    # every element, also those whose square lies outside [G,G]
    groups = [g for g in small_family if g.is_fast]
    groups += [cat[name] for name in SHIPPED_FAST if cat[name].n <= 9]
    groups += [rkm(5, 4, 1), rkm(4, 5, 2), rkm(6, 3, 3)]
    outside = 0
    for g in groups:
        der = derived_subgroup(g)
        for x in g.elements():
            h = _inverse_conjugator_fast(g, x)
            assert h == span_inverse_conjugator(g, x), (g.name, x)
            if g.square(x) not in der:
                assert h is None, (g.name, x)
                outside += 1
    assert outside
