"""`wedge_pairs` against the pairs of `class_centralizers`.

`sk1` and `commuting_wedge_span` read the pairs of `wedge_pairs`: on the
class-2 fast path (t, a generating set of C_G(t)) for t in a transversal
of the center, then (z, x_i) for z in a basis of Z(G); elsewhere the pairs
of `class_centralizers`, which `commuting_wedges` keeps as the oracle.  The
two pair sets must give the same wedge subgroup of H_2(G), checked by
membership both ways in the cover's kernel coordinates.
"""

import itertools
import math
from pathlib import Path

from conftest import RKM_LARGER, GenericView, rkm
from twogroups.catalog import parse_catalog
from twogroups.homology import cover_presentation
from twogroups.ktheory import sk1
from twogroups.linalg import smith_normal_form
from twogroups.pcgroup import class_centralizers, standard_subgroups, wedge_pairs

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"


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


def test_wedge_pairs_give_the_class_centralizer_wedge_subgroup(small_family):
    groups = small_family + [rkm(*a) for a in RKM_LARGER]
    groups += parse_catalog(COVERS_CAT.read_text())
    fewer = 0
    for g in groups:
        pres = cover_presentation(g)
        pairs = list(wedge_pairs(g))
        assert all(g.comm(a, h) == g.identity for a, hs in pairs for h in hs), g.name
        new = wedges(pres, pairs)
        # the fast kernel-basis pairs and the generic Schreier pairs
        oracles = [g, GenericView(g)] if g.is_fast else [g]
        for group in oracles:
            old = wedges(pres, class_centralizers(group))
            assert all(map(membership(pres, old), new)), g.name
            assert all(map(membership(pres, new), old)), g.name
        fewer += sum(len(hs) for _a, hs in pairs) < sum(
            len(hs) for _a, hs in class_centralizers(g)
        )
    assert fewer >= 10


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
