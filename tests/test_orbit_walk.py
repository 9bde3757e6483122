"""The generic orbit walk under the d(G) Frattini generators, and S read off
the abelian coordinates, against the code they replaced.

`frattini_generators` is checked against `abelian_invariants` and subgroup
closure.  The oracles below are the replaced code, kept here: the
centrality test against all n pc generators, the breadth-first orbit walk
under them, and the scan that puts g in S = {g : g^2 in [G,G]} by
squaring g.  `GenericView` runs the generic
walks on fast groups; the cyclic products carry Z/4 and Z/8 invariants, so
the coordinate test c_j = 0 mod d_j/2 is not only a parity test there.
"""

import pytest

from conftest import RKM_LARGER, GenericView, cyclic_product, rkm
from twogroups.homology import schur_cover
from twogroups.ktheory import h1_wh_prime
from twogroups.pcgroup import (
    abelian_invariants,
    abelianization,
    class_centralizers,
    conjugacy_classes,
    conjugate_to_inverse_witness,
    derived_subgroup,
    frattini_generators,
    subgroup,
)

CYCLIC = [(3,), (2, 1), (3, 2, 1), (3, 3), (2, 2, 1, 1)]


def orbit_under_all_generators(group, g):
    """The class of g as {y: t} with t^-1 g t = y, walked under every pc
    generator: the orbit walk before it took the Frattini generators."""
    orbit = {g: group.identity}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for x in group.generators:
                y = group.conj(h, x)
                if y not in orbit:
                    orbit[y] = group.mult(orbit[h], x)
                    nxt.append(y)
        frontier = nxt
    return orbit


def s_by_squaring(group):
    """S = {g : g^2 in [G,G]}, ascending, by squaring every element."""
    der = derived_subgroup(group).elements
    return [g for g in group.elements() if group.square(g) in der]


@pytest.fixture(scope="module")
def walk_family(small_family):
    """Generic copies of every fast group of small_family, R(6,4), R(5,5)
    and cyclic products, next to the generic groups of small_family."""
    fast = [g for g in small_family if g.is_fast] + [rkm(*a) for a in RKM_LARGER]
    fast += [cyclic_product(e) for e in CYCLIC]
    return [g for g in small_family if not g.is_fast] + [GenericView(g) for g in fast]


def test_frattini_generators_are_a_minimal_generating_set(cat, small_family):
    groups = small_family + [rkm(*a) for a in RKM_LARGER]
    groups += [schur_cover(cat[name]).cover for name in ["SG128_1376", "SG256_8129"]]
    assert {g.n for g in groups} >= {11, 14}
    for g in groups + [GenericView(g) for g in groups]:
        gens = frattini_generators(g)
        assert len(gens) == len(abelian_invariants(g)), g.name
        assert subgroup(g, gens).order == g.order, g.name
        for i in range(len(gens)):
            assert subgroup(g, gens[:i] + gens[i + 1:]).order < g.order, (g.name, i)


def test_frattini_generators_of_the_paper_group(cat):
    # n = 14 pc generators, d(G) = 7
    assert frattini_generators(cat["G16384"]) == [1 << i for i in range(7)]


def test_is_central_matches_the_test_against_all_generators(walk_family):
    for g in walk_family:
        for x in g.elements():
            every = all(g.comm(x, y) == g.identity for y in g.generators)
            assert subgroup(g, [x]).is_central == every, (g.name, x)


def test_classes_match_the_walk_under_all_generators(walk_family):
    for g in walk_family:
        seen, oracle = set(), []
        for x in g.elements():
            if x not in seen:
                orbit = orbit_under_all_generators(g, x)
                seen.update(orbit)
                oracle.append((min(orbit, key=g.lexkey), frozenset(orbit), g.order // len(orbit)))
        got = [(c.rep, frozenset(c.elements), c.centralizer_order) for c in conjugacy_classes(g)]
        assert sorted(got) == sorted(oracle), g.name


def test_schreier_generators_generate_the_centralizers(walk_family):
    for g in walk_family:
        sizes = {x: len(c.elements) for c in conjugacy_classes(g) for x in c.elements}
        d = len(frattini_generators(g))
        for rep, gens in class_centralizers(g):
            assert len(gens) <= sizes[rep] * d, g.name
            assert subgroup(g, gens).order == g.order // sizes[rep], (g.name, rep)


def test_s_matches_the_squaring_scan(walk_family):
    for g in walk_family:
        assert abelianization(g).s_elements() == s_by_squaring(g), g.name
    for e in CYCLIC:
        g = cyclic_product(e)
        assert abelianization(g).s_elements() == s_by_squaring(g), g.name
        assert len(s_by_squaring(g)) == 2 ** len(e), g.name


def test_generic_witnesses_conjugate_to_the_inverse(walk_family):
    for g in walk_family:
        data = h1_wh_prime(g)
        assert s_by_squaring(g) == sorted(data.s_subgroup.elements), g.name
        for a, h in data.witnesses:
            assert g.conj(a, h) == g.inv(a), (g.name, a)
        for x in g.elements():
            h = conjugate_to_inverse_witness(g, x)
            real = g.inv(x) in orbit_under_all_generators(g, x)
            assert (h is not None) == real, (g.name, x)
            assert h is None or g.conj(x, h) == g.inv(x), (g.name, x)
