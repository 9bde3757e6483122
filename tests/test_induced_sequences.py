"""Subgroups as induced pc sequences against the element-by-element closure.

`pcgroup.subgroup` closes an induced pc sequence: one member per leading
bit, every square and commutator of members sifting to 1.  The oracles in
conftest close the element set (`element_closure`) and scan a coset for its
least element (`least_in_coset`).  The family: `small_family`, the 2^10
R(k,m), the frozen benchmark covers (2^9..2^12, generic collector) and the
`GenericView` copy of each.
"""

import random
from pathlib import Path

import pytest

from conftest import RKM_LARGER, GenericView, element_closure, kernel_walk, least_in_coset, rkm
from twogroups.catalog import parse_catalog
from twogroups.pcgroup import (
    central_quotient,
    derived_subgroup,
    frattini_subgroup,
    homomorphism,
    standard_subgroups,
    subgroup,
)

RNG_SEED = 252525
COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"
# membership of every element, and sift of every element, up to this order
ALL_ELEMENTS = 1 << 9


@pytest.fixture(scope="module")
def family(small_family):
    groups = small_family + [rkm(*a) for a in RKM_LARGER]
    groups += parse_catalog(COVERS_CAT.read_text())
    return groups + [GenericView(g) for g in groups]


def _candidates(g, rng):
    """A few seeded generator lists: random elements, and the pc generators
    from a random start."""
    out = [[rng.randrange(g.order) for _ in range(rng.randint(1, 3))] for _ in range(2)]
    out.append(g.generators[rng.randrange(g.n):])
    return out


def _assert_induced(sub):
    """Distinct leading bits, ascending, and every square and commutator of
    members sifts to 1."""
    g, seq = sub.group, sub.seq
    leads = [s & -s for s in seq]
    assert leads == sorted(set(leads)) and 0 not in seq, g.name
    assert sub.order == 1 << len(seq) == len(sub.elements), g.name
    for i, s in enumerate(seq):
        assert g.square(s) in sub, g.name
        assert all(g.comm(s, t) in sub for t in seq[i + 1:]), g.name


def _elements_to_check(g, rng, samples=300):
    if g.order <= ALL_ELEMENTS:
        return g.elements()
    return [rng.randrange(g.order) for _ in range(samples)]


def test_sequence_closure_matches_element_closure(family):
    rng = random.Random(RNG_SEED)
    for g in family:
        for gens in _candidates(g, rng):
            for normal in (False, True):
                sub = subgroup(g, gens, normal_closure=normal)
                kept, elems = element_closure(g, gens, normal)
                assert sub.gens == tuple(kept), (g.name, gens, normal)
                assert sub.order == len(elems) and sub.elements == elems, (g.name, gens)
                _assert_induced(sub)
                for x in _elements_to_check(g, rng):
                    assert (x in sub) == (x in elems), (g.name, gens, x)


def test_sift_is_the_least_element_of_the_coset(family):
    rng = random.Random(RNG_SEED)
    for g in family:
        for gens in _candidates(g, rng)[:2]:
            sub = subgroup(g, gens)
            for x in _elements_to_check(g, rng, 100):
                assert sub.sift(x) == least_in_coset(g, sub.elements, x), (g.name, gens, x)


def test_frattini_subgroup_matches_the_closure_of_squares(family):
    for g in family:
        frat = frattini_subgroup(g)
        _assert_induced(frat)
        # Phi(G) = G^2 in a 2-group: the closure of every square
        squares = [g.square(x) for x in (g.elements() if g.order <= ALL_ELEMENTS else [])]
        squares += [g.square(x) for x in g.generators] + list(derived_subgroup(g).gens)
        assert frat.elements == element_closure(g, squares)[1], g.name


def test_standard_subgroups_match_the_element_oracles(family):
    for g in family:
        std = standard_subgroups(g)
        center = frozenset(
            z for z in g.elements() if all(g.conj(z, x) == z for x in g.generators)
        )
        comms = [g.comm(a, b) for a in g.generators for b in g.generators]
        derived = element_closure(g, comms, normal_closure=True)[1]
        for sub, want in [(std.center, center), (std.derived, derived),
                          (std.center_cap_derived, center & derived)]:
            assert sub.elements == want, g.name
            _assert_induced(sub)
            # the kept generators are irredundant
            for i, k in enumerate(sub.gens):
                assert k not in element_closure(g, sub.gens[:i])[1], g.name


def test_homomorphism_image_and_kernel_match_the_element_oracles(cat, small_family):
    homs = []
    for g in small_family:
        homs.append((homomorphism(g, g, [0] * g.n), g.order == 1))
        z = standard_subgroups(g).center
        t = next((t for t in sorted(z.elements) if t and not g.square(t)), None)
        if t is not None:
            homs.append((central_quotient(g, t), True))
    # C4 -> C4 squaring, x1 -> x2, x2 -> 1: onto the order-2 subgroup only
    c4 = cat["C4"]
    homs.append((homomorphism(c4, c4, [c4.generators[1], 0]), False))
    assert sum(not onto for _, onto in homs) >= len(small_family)
    for hom, onto in homs:
        s, t = hom.source, hom.target
        image = element_closure(t, [hom(x) for x in s.generators])[1]
        assert hom.is_surjective() == onto == (len(image) == t.order), s.name
        kernel = frozenset(x for x in s.elements() if hom(x) == t.identity)
        ker = hom.kernel()
        assert ker.elements == kernel and ker.order * len(image) == s.order, s.name
        _assert_induced(ker)


def test_kernel_sift_matches_the_kernel_walk(cat, small_family):
    # GroupHom.kernel sifts the images of the pc generators from the last
    # one up; the walk closes every element that maps to 1.  On the central
    # quotients of small_family, their composites with a second central
    # quotient, the trivial maps and the compat map SG256_8129 -> SG128_1376
    # the two agree in order and membership, and an order-2 kernel keeps
    # its one generator, the sigma of central_extension_from_hom
    homs = []
    for g in small_family:
        center = standard_subgroups(g).center
        for t in [t for t in sorted(center.elements) if t and not g.square(t)][:3]:
            p = central_quotient(g, t)
            homs.append(p)
            q = p.target
            u = next((u for u in sorted(standard_subgroups(q).center.elements)
                      if u and not q.square(u)), None)
            if u is not None:
                pq = central_quotient(q, u)
                homs.append(homomorphism(g, pq.target, [pq(p(x)) for x in g.generators]))
        homs.append(homomorphism(g, g, [0] * g.n))
    cover, base = cat["SG256_8129"], cat["SG128_1376"]
    compat = homomorphism(cover, base, [base.generators[i] for i in [0, 1, 2, 3, 4, 5, 6, 4]])
    homs.append(compat)
    assert len(homs) > 4 * len(small_family)
    assert {hom.kernel().order for hom in homs} >= {2, 4, 8}
    for hom in homs:
        ker, oracle = hom.kernel(), kernel_walk(hom)
        assert ker.order == oracle.order, hom.source.name
        assert all((x in ker) == (x in oracle.elements) for x in hom.source.elements())
        _assert_induced(ker)
        if ker.order == 2:
            assert ker.seq == oracle.seq, hom.source.name
    assert compat.kernel().seq == (cover.element_from_indices([5, 8]),)
