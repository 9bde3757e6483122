"""`wedge_pairs` against the pairs of `class_centralizers`.

`sk1`, `commuting_wedges` and `commuting_wedge_span` read the pairs of
`wedge_pairs`: (t, a generating set of C_G(t)) for t in a transversal of
the center, one t per class, then (z, x_i) for z in a generating set of
Z(G).  The generators of C_G(t) are a kernel basis on the class-2 fast
path and the centralizer sequences of the class lift elsewhere, where t
runs over the reps of the classes of G/K, K the central tail
(`GenericView` runs those on a fast group).  The oracle
`class_centralizers` (conftest) takes one Schreier walk per class.  The
pair sets must give the same wedge subgroup of H_2(G), checked by
membership both ways in the cover's kernel coordinates.
"""

import itertools
import math
from pathlib import Path

import pytest

from conftest import RKM_LARGER, GenericView, class_centralizers, rkm
from twogroups.catalog import parse_catalog
from twogroups.homology import cover_presentation
from twogroups.ktheory import sk1
from twogroups.linalg import smith_normal_form
from twogroups import pcgroup
from twogroups.pcgroup import (
    conjugacy_classes,
    conjugacy_orbit,
    frattini_generators,
    standard_subgroups,
    wedge_pairs,
)

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"


@pytest.fixture(scope="module")
def covers(cat):
    """The frozen benchmark covers and the 2^14 class-3 cover of SG256_8129,
    all on the generic collector."""
    out = parse_catalog(COVERS_CAT.read_text())
    out.append(cover_presentation(cat["SG256_8129"]).cover)
    assert not any(g.is_fast for g in out)
    return out


def wedges(pres, pairs):
    return {pres.wedge(g, h) for g, hs in pairs for h in hs}


def membership(pres, gens):
    """x -> whether x lies in the span of gens in the sum of the Z/d_j:
    the row span of gens stacked with diag(d_j), read off its Smith form."""
    d = pres.h2_invariants
    modulus = 2 * pres.group.order
    rows = [[m if i == j else 0 for j in range(len(d))] for i, m in enumerate(d)]
    diag, v, _vinv = smith_normal_form(rows + sorted(gens), modulus)
    assert 0 not in diag

    def contains(x):
        return all(
            sum(c * row[j] for c, row in zip(x, v)) % modulus % dj == 0
            for j, dj in enumerate(diag)
        )

    return contains


def test_wedge_pairs_give_the_class_centralizer_wedge_subgroup(small_family, covers):
    groups = small_family + [rkm(*a) for a in RKM_LARGER] + covers
    fewer = 0
    for g in groups:
        pres = cover_presentation(g)
        oracle = list(class_centralizers(g))
        old = wedges(pres, oracle)
        # the fast kernel-basis pairs and the generic Schreier pairs
        for group in [g, GenericView(g)] if g.is_fast else [g]:
            pairs = list(wedge_pairs(group))
            assert all(g.comm(a, h) == g.identity for a, hs in pairs for h in hs), g.name
            new = wedges(pres, pairs)
            assert all(map(membership(pres, old), new)), g.name
            assert all(map(membership(pres, new), old)), g.name
            fewer += sum(len(hs) for _a, hs in pairs) < sum(len(hs) for _a, hs in oracle)
    assert fewer >= 20


def test_generic_wedge_pairs_walk_disjoint_classes(small_family, covers):
    # one pair per class of Q = G/K not central in G, at its rep, before
    # the central ones: their classes are disjoint and miss Z(G), each
    # paired with an induced sequence of its centralizer, and the pair
    # count stays under the bound (|G| - |Z|) d(G) + n log2 |Z| <= |G| n
    # of the orbit walk that SK1_PAIR_BOUND was set for
    fast = [g for g in small_family if g.is_fast] + [rkm(*a) for a in RKM_LARGER]
    groups = [g for g in small_family if not g.is_fast] + covers
    for g in groups + [GenericView(f) for f in fast]:
        center = standard_subgroups(g).center.elements
        d = len(frattini_generators(g))
        reps = [c.rep for c in conjugacy_classes(pcgroup._quotient(g)[0]) if c.rep not in center]
        pairs = list(wedge_pairs(g))
        assert sorted(t for t, _hs in pairs[:len(reps)]) == sorted(reps), g.name
        walked, count = set(), 0
        for t, hs in pairs:
            count += len(hs)
            if t in center:
                assert hs == g.generators, g.name
                continue
            orbit = conjugacy_orbit(g, t)
            assert walked.isdisjoint(orbit) and center.isdisjoint(orbit), (g.name, t)
            walked.update(orbit)
            assert 1 << len(hs) == g.order // len(orbit), (g.name, t)
        z = len(center).bit_length() - 1
        assert count <= (g.order - len(center)) * d + g.n * z <= g.order * g.n, g.name


def test_generic_wedge_pairs_of_the_2_14_cover_stay_few(covers):
    # the class-3 cover of SG256_8129: 9,328 pairs by the orbit walk's
    # Schreier generators, 703 from the class lift
    big = covers[-1]
    assert big.order == 1 << 14
    assert sum(len(hs) for _t, hs in wedge_pairs(big)) < 1000


def test_fast_wedge_pairs_stay_within_the_center_bound(cat):
    # at most (|G/Z| - 1) n kernel-basis pairs and n log2 |Z| central pairs
    for g in [cat["G16384"], cat["SG256_9039"]] + [rkm(*a) for a in RKM_LARGER]:
        z = standard_subgroups(g).center.order
        count = sum(len(hs) for _t, hs in wedge_pairs(g))
        assert count <= (g.order // z) * g.n + g.n * (z.bit_length() - 1), g.name
    assert sum(len(hs) for _t, hs in wedge_pairs(cat["G16384"])) < 1000


def test_omega_nontrivial_agrees_with_the_class_centralizer_wedges(cat):
    checked = 0
    for g in cat.values():
        if g.order > 1 << 8:
            continue
        data = sk1(g)
        pres = data.cover
        inside = membership(pres, wedges(pres, class_centralizers(g)))
        d = pres.h2_invariants
        for coords in itertools.product(*(range(m) for m in d)):
            k = sum(c << chain[0] for c, chain in zip(coords, pres.chains))
            assert pres.kernel_coordinates(k) == coords
            assert data.omega_nontrivial(k) == (not inside(coords)), (g.name, coords)
            checked += 1
    assert checked == sum(
        math.prod(cover_presentation(g).h2_invariants)
        for g in cat.values() if g.order <= 1 << 8
    )
