"""Class representatives with centralizer generators against brute force.

`commuting_wedges` and `commuting_wedge_span` read only the pairs
(class representative, centralizer generator) of `class_centralizers`; the
oracle is the |G|^2 walk `commuting_pairs` over every commuting pair.
"""

from twogroups.homology import (
    commuting_pairs,
    commuting_wedge_span,
    commuting_wedges,
    schur_cover,
    wedge_space,
)
from twogroups.linalg import Gf2Span
from twogroups.pcgroup import PcError, class_centralizers, conjugacy_classes, subgroup


def test_centralizer_generators_give_centralizer_orders(small_family):
    for g in small_family:
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


def test_class_centralizers_is_deterministic(cat):
    g = cat["SG128_1376"]
    assert list(class_centralizers(g)) == list(class_centralizers(g))
