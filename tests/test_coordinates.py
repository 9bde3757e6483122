"""Coordinates on abelian quotients, read linearly off the exponent bits,
against an independent construction: greedy GF(2) coordinates listed
coset by coset with `elementary_coordinates`.

- delta: the greedy table keyed by the least elements of the C-cosets;
- omega_bits and the wedge space: the table over the [G,G]-cosets of G;
- the LHS base: the table over the Frattini cosets of the base.
"""

import random

import pytest

from conftest import least_in_coset, relabel, rkm
from twogroups.homology import commuting_wedge_span, wedge_space
from twogroups.lhs import LhsError, frattini_subgroup, lhs_data_for
from twogroups.linalg import Gf2Span, elementary_coordinates
from twogroups.ooze import OozeError, delta_map
from twogroups.pcgroup import PcError, PcGroup, abelianization


def d8_times_c2():
    """D8 x C2 with the commutator x3 = [x1, x2] listed before the C2 factor
    x4, so the generators outside [G,G] are not the first ones."""
    comms = [[0] * 4 for _ in range(4)]
    comms[0][1] = 1 << 2
    return PcGroup("D8xC2", 4, [0] * 4, comms, validate=True)


@pytest.fixture(scope="module")
def family(cat):
    """Every shipped group, G16384 and SG256_9039 under eight relabellings,
    R(4,3) seed 31776, a seeded class-2 group with H^1(Wh') of rank 1, and
    D8 x C2."""
    out = list(cat.values())
    out += [relabel(cat[name], random.Random(seed))
            for name in ["G16384", "SG256_9039"] for seed in range(8)]
    out += [rkm(4, 3, 31776), d8_times_c2()]
    return out


def omega_oracle(group, ab):
    """Every element of S = {g : g^2 in [G,G]} mapped to its mask over the
    v_j, built over the [G,G]-cosets of G."""
    v = [group.power(x, d // 2) for x, d in zip(ab.factor_gens, ab.invariants)]
    basis, table = elementary_coordinates(group.mult, ab.derived.elements, v)
    assert basis == v
    return table


def delta_oracle(group, dm):
    """The greedy table keyed by least elements of C-cosets, extended to
    every element of S: (matrix, element -> delta)."""
    c_elems = dm.wh.c_subgroup.elements

    def key(g):
        return least_in_coset(group, c_elems, g)

    keys = [key(v) for v in dm.h0_reps]
    _basis, table = elementary_coordinates(
        lambda a, b: key(group.mult(a, b)), [key(group.identity)], keys
    )
    full = {group.mult(k, c): mask for k, mask in table.items() for c in c_elems}
    return [table[k] for k in keys], full


def test_omega_bits_match_the_coset_table(family):
    for g in family:
        ab = abelianization(g)
        table = omega_oracle(g, ab)
        assert len(table) == sum(g.square(x) in ab.derived.elements for x in g.elements())
        for x in g.elements():
            assert ab.omega_bits(x) == table.get(x), (g.name, x)


def test_delta_matches_the_greedy_coset_table(family):
    ranks = set()
    for g in family:
        dm = delta_map(g)
        matrix, full = delta_oracle(g, dm)
        assert dm.matrix == matrix, g.name
        assert len(full) == dm.wh.s_subgroup.order, g.name
        for x in g.elements():
            if x in full:
                assert dm.value(x) == full[x], (g.name, x)
            else:
                with pytest.raises(OozeError):
                    dm.value(x)
        ranks.add(dm.rank)
    assert ranks >= {0, 1, 3}


def test_wedge_masks_match_the_coset_table(cat, small_family):
    checked = 0
    groups = list(cat.values()) + small_family
    groups += [relabel(cat["SG256_9039"], random.Random(seed)) for seed in range(8)]
    groups.append(d8_times_c2())
    for g in groups:
        try:
            ws = wedge_space(g)
        except PcError:
            continue
        der = abelianization(g).derived
        lifts, table = elementary_coordinates(g.mult, der.elements, g.generators)
        assert ws.factor_lifts == lifts, g.name
        for x in g.elements():
            assert ws.class_mask(x) == table[x], (g.name, x)
        # the commutator map kills every commuting wedge
        kernel = Gf2Span(ws.kernel_basis)
        assert all(kernel.contains(w) for w in commuting_wedge_span(g, ws).basis()), g.name
        checked += 1
    assert checked >= 25


def test_lhs_w_coordinates_match_the_frattini_table(family):
    checked = 0
    for g in family:
        try:
            data = lhs_data_for(g)
        except LhsError:
            continue
        _basis, table = elementary_coordinates(
            g.mult, frattini_subgroup(g).elements, data.w_gens
        )
        assert len(table) == g.order, g.name
        for x in g.elements():
            assert data.w_coordinates(x) == table[x], (g.name, x)
        checked += 1
    assert checked >= 20
