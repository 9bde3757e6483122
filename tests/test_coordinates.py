"""Coordinates on abelian sections, read linearly off the exponent bits or
off the members that `Subgroup.sift` uses, against an independent
construction: greedy GF(2) coordinates listed coset by coset with the
table oracle `elementary_coordinates` (conftest).

- delta: the greedy table keyed by the least elements of the C-cosets;
- omega_bits and the wedge space: the table over the [G,G]-cosets of G;
- the LHS base: the table over the Frattini cosets of the base;
- C's generators, the wedge kernel and the extension class: the tables
  that `h1_wh_prime`, `wedge_space` and `extension_class_rep` built before
  `Subgroup.coordinates` and the `omega_bits` span replaced them.
"""

import random
from pathlib import Path

import pytest

from conftest import RKM_LARGER, elementary_coordinates, least_in_coset, relabel, rkm
from twogroups.catalog import parse_catalog
from twogroups.homology import commuting_wedge_span, schur_cover, wedge_space
from twogroups.ktheory import central_extension_from_hom, h1_wh_prime
from twogroups.lhs import LhsError, extension_class_rep, frattini_subgroup, lhs_data_for
from twogroups.linalg import Gf2Span, gf2_kernel, transpose_masks
from twogroups.ooze import OozeError, delta_map
from twogroups.pcgroup import (PcError, PcGroup, abelianization, conjugacy_classes, homomorphism,
                               subgroup)

COVERS_CAT = Path(__file__).parents[1] / "perfbench" / "covers.cat"


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


def test_c_generators_match_the_doubling_table(cat):
    # C = [G,G] doubled by each witness not yet in it, in witness order on
    # the fast path, in the order of the real class records on the generic
    groups = list(cat.values()) + parse_catalog(COVERS_CAT.read_text())
    groups += [schur_cover(cat[name]).cover for name in ["D8", "C2xC4", "SG128_1376"]]
    for g in groups:
        data = h1_wh_prime(g)
        der = abelianization(g).derived
        if g.is_fast:
            candidates = (a for a, _ in data.witnesses)
        else:
            candidates = (c.rep for c in conjugacy_classes(g) if c.is_real)
            assert all(g.conj(a, h) == g.inv(a) for a, h in data.witnesses), g.name
        basis = elementary_coordinates(g.mult, der.elements, candidates)[0]
        want = subgroup(g, der.gens + tuple(basis))
        assert data.c_subgroup.gens == want.gens, g.name
        assert data.c_subgroup.seq == want.seq, g.name


def test_wedge_kernel_matches_the_derived_table(cat, small_family):
    checked = 0
    for g in list(cat.values()) + small_family + [rkm(*a) for a in RKM_LARGER]:
        try:
            ws = wedge_space(g)
        except PcError:
            continue
        der = abelianization(g).derived
        assert ws.derived_basis == der.seq, g.name
        # the greedy basis of [G,G] over its elements in lexkey order
        _basis, dcoord = elementary_coordinates(g.mult, [g.identity], der.sorted_elements())
        comm = [dcoord[g.comm(ws.factor_lifts[i], ws.factor_lifts[j])] for i, j in ws.pairs]
        assert ws.kernel_basis == sorted(gf2_kernel(transpose_masks(comm), len(ws.pairs))), g.name
        _lifts, table = elementary_coordinates(g.mult, der.elements, g.generators)
        assert ws.gen_masks == [table[x] for x in g.generators], g.name
        checked += 1
    assert checked >= 20


def extension_class_oracle(ext):
    """(complement, sigma components) of `extension_class_rep` from the
    greedy table of V~ = <Frattini, t>: generators first, then elements."""
    cover, t = ext.cover_group, ext.t
    vt = subgroup(cover, list(frattini_subgroup(cover).gens) + [t])
    candidates = [x for x in cover.generators if x in vt]
    candidates += [x for x in vt.sorted_elements() if x not in candidates]
    basis, coord = elementary_coordinates(cover.mult, [cover.identity], candidates)
    assert len(coord) == vt.order
    pivot = coord[t].bit_length() - 1
    outside = [x for x in cover.generators if x not in vt]
    comps = {f"{cover.element_str(a)}^2": coord[cover.square(a)] >> pivot & 1 for a in outside}
    for i, a in enumerate(outside):
        for b in outside[i + 1:]:
            name = f"[{cover.element_str(a)},{cover.element_str(b)}]"
            comps[name] = coord[cover.comm(a, b)] >> pivot & 1
    return [cover.element_str(b) for k, b in enumerate(basis) if k != pivot], comps


@pytest.mark.parametrize("top, base, last, theta", [
    ("SG256_8129", "SG128_1376", 4, "X1*X2+X1*X3"),
    ("SG256_8177", "SG128_1377", 6, "X1^2+X1*X4+X4^2"),
])
def test_extension_class_matches_the_greedy_table(cat, top, base, last, theta):
    pit, pi = cat[top], cat[base]
    data = lhs_data_for(pi)
    alpha = homomorphism(pit, pi, [pi.generators[i] for i in range(7)] + [pi.generators[last]])
    ext = central_extension_from_hom(pit, alpha)
    rep = extension_class_rep(ext, data)
    complement, comps = extension_class_oracle(ext)
    assert rep.complement == complement
    assert rep.sigma_component == comps
    assert rep.theta == data.poly(theta)


def test_subgroup_coordinates_are_linear_and_refuse_outsiders(cat, small_family):
    rng = random.Random(26)
    sections = []
    for g in [x for x in small_family if x.is_fast] + [cat["G16384"], cat["SG256_9039"]]:
        sections += [(g, abelianization(g).derived), (g, frattini_subgroup(g))]
    for g in [cat["SG256_8129"], cat["SG256_8177"]]:
        sections.append((g, subgroup(g, list(frattini_subgroup(g).gens) + [1 << 7])))
    refused = 0
    for g, sub in sections:
        assert all(g.square(s) == g.identity for s in sub.seq), g.name

        def product(mask):
            x = g.identity
            for k, s in enumerate(sub.seq):
                if mask >> k & 1:
                    x = g.mult(x, s)
            return x

        for _ in range(32):
            a, b = rng.getrandbits(len(sub.seq)), rng.getrandbits(len(sub.seq))
            assert sub.coordinates(product(a)) == a, g.name
            assert sub.coordinates(g.mult(product(a), product(b))) == a ^ b, g.name
        outsiders = [x for x in g.generators if x not in sub]
        for x in outsiders[:3]:
            with pytest.raises(PcError):
                sub.coordinates(x)
            refused += 1
    assert refused >= 20
