"""The class-2 walks that build no key per element, against the code they
replaced.

The fast class walk lists each class in `lexkey` order from its least
member, `h1_wh_prime` keys the cosets of [G,G] by their least members,
read off byte tables, and `fingerprint` counts element orders once per
class.  The oracles below are the replaced code, kept here: the per-coset
walk that sorted every class by `lexkey`, one `Gf2Span.reduce` per
element, and one `element_order` per element of G.  `GenericView` copies
run the generic walks, which still sort; both must give the same classes
in the same order, and the generic wedge pairs the same centralizers.
"""

from collections import Counter
from pathlib import Path

import pytest

from conftest import RKM_LARGER, GenericView, rkm
from twogroups import pcgroup
from twogroups.catalog import fingerprint, parse_catalog
from twogroups.ktheory import h1_wh_prime
from twogroups.linalg import (Gf2Span, gf2_kernel, least_images, linear_map, span_elements,
                              transpose_masks)
from twogroups.pcgroup import (
    abelianization,
    center_span,
    center_transversal,
    conjugacy_classes,
    subgroup,
    wedge_pairs,
)

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"
# a seeded R(8,6), of order 2^14 like the paper's group
R86_SEED = 806


def sorting_walk(group):
    """(g, members sorted by lexkey, centralizer generators) per class of a
    class-2 group, in element order of g: the class walk before the
    ordered enumeration, g ^ the span of the [g, x_i] as `Gf2Span` stores
    it."""
    seen = set()
    center = center_span(group)
    per_coset = {}
    for g in group.elements():
        if g in seen:
            continue
        key = center.reduce(g)
        if key not in per_coset:
            image = [group.comm(g, x) for x in group.generators]
            gens = gf2_kernel(transpose_masks(image), group.n)
            per_coset[key] = (span_elements(Gf2Span(image).basis()), gens)
        span, gens = per_coset[key]
        members = [g ^ c for c in span]
        seen.update(members)
        yield g, sorted(members, key=group.lexkey), gens


def fingerprint_by_elements(group):
    """(order profile, exponent, conj_to_inverse_count), each counted over
    every element of the group."""
    class_of = {x: i for i, c in enumerate(conjugacy_classes(group)) for x in c.elements}
    orders = Counter(group.element_order(x) for x in group.elements())
    conj_inv = sum(class_of[group.inv(x)] == class_of[x] for x in group.elements())
    return tuple(sorted(orders.items())), max(orders), conj_inv


@pytest.fixture(scope="module")
def fast_groups(cat, small_family):
    """Every fast group of small_family, R(6,4), R(5,5), the fast shipped
    groups and a seeded R(8,6), each presentation once."""
    groups = [g for g in small_family if g.is_fast] + [rkm(*a) for a in RKM_LARGER]
    groups += [g for g in cat.values() if g.is_fast] + [rkm(8, 6, R86_SEED)]
    groups = list({(g.powers, g.comms): g for g in groups}.values())
    assert {"G16384", "SG256_9039", "R8_6_s806"} <= {g.name for g in groups}
    return groups


def test_classes_come_in_lexkey_order_from_the_least_member(fast_groups):
    for g in fast_groups:
        classes = conjugacy_classes(g)
        walk = sorting_walk(g)
        oracle = sorted(((m[0], tuple(m), g.order // len(m)) for _g, m, _c in walk),
                        key=lambda c: g.lexkey(c[0]))
        assert [(c.rep, c.elements, c.centralizer_order) for c in classes] == oracle, g.name
        for c in classes:
            assert c.rep == min(c.elements, key=g.lexkey), g.name
        # the generic walk sorts its members; it must list the same classes
        generic = conjugacy_classes(GenericView(g))
        assert [(c.rep, c.elements) for c in generic] == [o[:2] for o in oracle], g.name


def test_wedge_pairs_take_the_class_walk_centralizers(fast_groups):
    # on a class-2 group each transversal element is the first member of
    # its class, so the fast path pairs it with the generators that the
    # class walk gave its class, in the transversal's order; a generic copy
    # pairs the rep of each class of G/K that is not central in G, in the
    # order of those classes, with an induced sequence of the centralizer
    # that the class walk generates
    for g in fast_groups:
        transversal = center_transversal(g)[1:]
        walk = list(sorting_walk(g))
        first = {rep: gens for rep, _members, gens in walk}
        pairs = list(wedge_pairs(g))[:len(transversal)]
        assert pairs == [(t, first[t]) for t in transversal], g.name
        view = GenericView(g)
        reps = [c.rep for c in conjugacy_classes(pcgroup._quotient(view)[0])
                if any(g.comm(c.rep, x) for x in g.generators)]
        pairs = list(wedge_pairs(view))[:len(reps)]
        assert [t for t, _gens in pairs] == reps, g.name
        centralizer_of = {m: gens for _t, members, gens in walk for m in members}
        for t, gens in pairs:
            leads = [c & -c for c in gens]
            assert leads == sorted(set(leads)) and 0 not in leads, (g.name, t)
            want = subgroup(g, centralizer_of[t])
            assert len(gens) == len(want.seq) and all(c in want for c in gens), (g.name, t)


def test_fingerprint_counts_orders_per_class(fast_groups):
    covers = parse_catalog(COVERS_CAT.read_text())
    assert covers and not any(g.is_fast for g in covers)
    for g in fast_groups + [GenericView(g) for g in fast_groups] + covers:
        fp = fingerprint(g)
        got = (fp.order_profile, fp.exponent, fp.conj_to_inverse_count)
        assert got == fingerprint_by_elements(g), g.name
        assert sum(n for _o, n in fp.order_profile) == g.order, g.name


def test_h1_wh_prime_residue_tables_match_reduce(small_family):
    groups = [g for g in small_family if g.is_fast] + [rkm(*a) for a in RKM_LARGER]
    assert max(g.n for g in groups) > 8
    for g in groups:
        der = abelianization(g).derived
        span = Gf2Span(der.gens)
        residue = linear_map([span.reduce(1 << j) for j in range(g.n)])
        least = linear_map(least_images(der.seq, g.n))
        for x in g.elements():
            assert residue(x) == span.reduce(x), (g.name, x)
            assert least(x) == min(x ^ c for c in der.elements), (g.name, x)
        # the witnesses themselves are pinned against the per-element walk
        # by test_ktheory.py::test_h1_wh_prime_coset_witness_matches_per_element_solve
        fast = h1_wh_prime(g)
        q = GenericView(g)
        slow = h1_wh_prime(q)
        assert [a for a, _ in slow.witnesses] == [a for a, _ in fast.witnesses], g.name
        for a, h in slow.witnesses:
            assert q.conj(a, h) == q.inv(a), g.name
        assert slow.s_subgroup.elements == fast.s_subgroup.elements, g.name
        assert slow.c_subgroup.elements == fast.c_subgroup.elements, g.name
        assert slow.rank == fast.rank, g.name
