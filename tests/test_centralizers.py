"""Centralizer generators of `wedge_pairs` against brute force.

`commuting_wedges`, `commuting_wedge_span` and `sk1` read only the pairs
(g, generator of C_G(g)) of `wedge_pairs`; the oracle is the |G|^2 walk
`commuting_pairs` over every commuting pair.  On the class-2 fast path the
generators are a kernel basis, on the generic path the centralizer
sequences of the class lift; `GenericView` runs the generic walk on a
fast group.  The
oracle `class_centralizers` (conftest) gives one pair per class.
"""

import pytest

from conftest import RKM, RKM_LARGER, GenericView, class_centralizers, rkm
from twogroups import pcgroup
from twogroups.homology import (
    commuting_pairs,
    commuting_wedge_span,
    commuting_wedges,
    cover_presentation,
    schur_cover,
    wedge_space,
)
from twogroups.ktheory import sk1
from twogroups.linalg import Gf2Span
from twogroups.pcgroup import (
    ELEMENT_WALK_BOUND,
    PcError,
    PcGroup,
    ScaleError,
    center_transversal,
    conjugacy_classes,
    standard_subgroups,
    subgroup,
    wedge_pairs,
)


def test_centralizer_generators_give_centralizer_orders(small_family):
    larger = [rkm(*a) for a in RKM_LARGER]
    fast = [g for g in small_family + larger if g.is_fast]
    for g in small_family + larger + [GenericView(f) for f in fast]:
        class_of = {x: c for c in conjugacy_classes(g) for x in c.elements}
        for walk in (wedge_pairs, class_centralizers):
            reps = []
            for rep, gens in walk(g):
                assert g.identity not in gens and len(set(gens)) == len(gens)
                assert all(g.comm(rep, s) == g.identity for s in gens), g.name
                assert subgroup(g, gens).order == class_of[rep].centralizer_order, g.name
                reps.append(rep)
            if walk is class_centralizers:
                assert sorted(class_of[r].rep for r in reps) == sorted(
                    c.rep for c in conjugacy_classes(g)
                ), g.name
    for g in fast:
        # the fast walk takes every non-central transversal element, in
        # order; the generic walk the rep of each class of G/K that is not
        # central in G, in the order of G/K's classes
        k = len(center_transversal(g)) - 1
        assert [rep for rep, _gens in wedge_pairs(g)][:k] == center_transversal(g)[1:], g.name
        view = GenericView(g)
        reps = [c.rep for c in conjugacy_classes(pcgroup._quotient(view)[0])
                if any(g.comm(c.rep, x) for x in g.generators)]
        generic = [rep for rep, _gens in wedge_pairs(view)]
        assert generic[:len(reps)] == reps, g.name
        center = standard_subgroups(g).center
        assert all(rep in center for rep in generic[len(reps):]), g.name


def test_fast_and_generic_walks_give_the_same_sk1_and_wedge_span(cat):
    groups = [rkm(*a) for a in RKM + RKM_LARGER] + [g for g in cat.values() if g.is_fast]
    spans = 0
    for g in groups:
        cover = cover_presentation(g)
        assert sk1(g, cover).as_dict() == sk1(GenericView(g), cover).as_dict(), g.name
        try:
            ws = wedge_space(g)
        except PcError:
            continue
        fast_span = commuting_wedge_span(g, ws)
        generic_span = commuting_wedge_span(GenericView(g), ws)
        assert fast_span.rank == generic_span.rank, g.name
        assert all(generic_span.contains(v) for v in fast_span.basis()), g.name
        spans += 1
    assert spans >= 10


def test_fast_walk_never_takes_the_orbit_walk(cat, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("conjugacy_orbit called on the fast path")

    monkeypatch.setattr(pcgroup, "conjugacy_orbit", refuse)
    for g in [cat["G16384"]] + [rkm(*a) for a in RKM_LARGER]:
        assert g.is_fast
        assert len(list(wedge_pairs(g))) > 1 and conjugacy_classes(g), g.name
        data = sk1(g)
        if g.name == "G16384":
            assert data.invariants == ()
            assert data.cover.h2_invariants == (2,) * 12 + (4,) * 8


def test_commuting_wedges_match_brute_force(small_family):
    for g in small_family:
        cover = schur_cover(g)
        sc = cover.cover
        oracle = subgroup(sc, [sc.comm(a, b) for a, b in commuting_pairs(g)])
        assert commuting_wedges(g, cover).elements == oracle.elements, g.name


def test_commuting_wedge_span_matches_brute_force(small_family):
    checked = 0
    for g in small_family:
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


def test_wedge_pairs_are_deterministic(cat):
    for g in [cat["SG128_1376"], GenericView(cat["SG128_1376"]), cat["C8"]]:
        assert list(wedge_pairs(g)) == list(wedge_pairs(g))


def test_wedge_pairs_refuse_large_groups_before_the_first_pair():
    # the walk visits every element: C2^21 is refused before the first class
    n = ELEMENT_WALK_BOUND.bit_length()
    big = PcGroup(f"C2x{n}", n, [0] * n, [[0] * n for _ in range(n)])
    for g in (big, GenericView(big)):
        with pytest.raises(ScaleError, match="wedge_pairs bound"):
            next(wedge_pairs(g))
