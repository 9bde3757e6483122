import random
import time

import pytest

from conftest import cyclic_product, rkm
from twogroups.homology import (
    ScaleError,
    commuting_wedges,
    h2_integral,
    schur_cover,
    wedge_space,
)
from twogroups.linalg import smith_normal_form
from twogroups.oracles import bar_h2, kunneth_h2_of_cyclic_product, pc_to_table
from twogroups.pcgroup import PcError, PcGroup, subquotient_invariants, tails_rows


def c4c4():
    return PcGroup("C4xC4", 4, [1 << 2, 1 << 3, 0, 0], [[0] * 4 for _ in range(4)])


def random_presentations(seed, count):
    """Seeded random consistent pc presentations of order 4 and 8: random
    power and commutator words, kept when they pass validation."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.choice([2, 3, 3])
        powers = [rng.getrandbits(n) >> (i + 1) << (i + 1) for i in range(n)]
        comms = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                comms[i][j] = rng.getrandbits(n) >> (j + 1) << (j + 1)
        try:
            out.append(PcGroup(f"P{seed}_{len(out)}", n, powers, comms, validate=True))
        except PcError:
            continue
    return out


def test_stem_part_matches_bar_oracle(cat):
    groups = [cat[name] for name in ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8"]]
    groups += random_presentations(seed=9, count=24)
    for g in groups:
        cover = schur_cover(g)
        assert cover.h2_invariants == bar_h2(pc_to_table(g)), g.name


def test_kunneth_oracle(cat):
    assert schur_cover(cat["C2xC2"]).h2_invariants == kunneth_h2_of_cyclic_product([2, 2])
    assert schur_cover(cat["C2xC2xC2"]).h2_invariants == kunneth_h2_of_cyclic_product(
        [2, 2, 2]
    )
    assert schur_cover(c4c4()).h2_invariants == kunneth_h2_of_cyclic_product([4, 4]) == (4,)
    # up to 2^10, with torsion up to Z/32 in the tails Smith form
    for exponents in [[10], [5, 5], [1, 2, 3, 4], [3, 3, 4], [1, 1, 8], [2, 3]]:
        g = cyclic_product(exponents)
        expected = kunneth_h2_of_cyclic_product([1 << e for e in exponents])
        assert schur_cover(g).h2_invariants == expected, g.name


def test_cover_structure(cat):
    g = cat["SG128_1376"]
    cover = schur_cover(g)
    assert cover.kernel.is_central
    assert cover.epi.is_surjective()
    assert cover.epi.kernel().elements == cover.kernel.elements
    assert cover.cover.order == g.order * cover.kernel.order
    assert cover.stem_part.elements <= cover.kernel.elements
    assert h2_integral(g, cover) == cover.h2_invariants


def test_h2_examples(cat):
    assert h2_integral(cat["C2xC2xC2"]) == (2, 2, 2)
    assert h2_integral(cat["Q8"]) == ()
    # exponent two for the compatible-pair base group
    assert all(d == 2 for d in h2_integral(cat["SG128_1376"]))


def test_scale_bound(cat):
    with pytest.raises(ScaleError):
        schur_cover(cat["G16384"])


def test_cover_derived_bound():
    # the kernel closure of schur_cover is sized by |H_2|; C2^7 has
    # |H_2| = 2^21 (292 s in-process before any bound): refused at once
    start = time.perf_counter()
    with pytest.raises(ScaleError, match=r"\|H_2\(G\)\| <= 2\^15, got 2\^21"):
        schur_cover(cyclic_product([1] * 7))
    assert time.perf_counter() - start < 5


def test_cover_accepts_multiplier_below_bound():
    # R(4,6) seed 2, |H_2| = 2^12: refused when the bound counted the
    # cover's derived subgroup (2^17 elements, 16.8 s, 535 MB)
    cover = schur_cover(rkm(4, 6, 2))
    assert cover.h2_invariants == (2,) * 12
    assert cover.stem_part.order == 1 << 12


def test_commuting_wedges_abelian_exhaust(cat):
    for name in ["C2xC2", "C2xC4", "C2xC2xC2"]:
        g = cat[name]
        cover = schur_cover(g)
        w = commuting_wedges(g, cover)
        assert w.elements == cover.stem_part.elements, name


def test_commuting_wedges_trivial_group(cat):
    c2 = cat["C2"]
    cover = schur_cover(c2)
    w = commuting_wedges(c2, cover)
    assert w.order == 1


def test_commuting_wedges_index_two_for_1376(cat):
    g = cat["SG128_1376"]
    cover = schur_cover(g)
    w = commuting_wedges(g, cover)
    assert cover.stem_part.order == 2 * w.order
    assert subquotient_invariants(cover.cover, cover.stem_part, w) == (2,)


def test_tails_invariants_stable_under_permutation(cat):
    rng = random.Random(3)
    g = cat["SG128_1377"]
    rows = tails_rows(g)
    diag, _, _ = smith_normal_form(rows, 2 * g.order)
    base = sorted(d for d in diag if d not in (0, 1))
    assert base == list(h2_integral(g))
    for _ in range(5):
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        cols = list(range(len(rows[0])))
        rng.shuffle(cols)
        permuted = [[row[c] for c in cols] for row in shuffled]
        diag2, _, _ = smith_normal_form(permuted, 2 * g.order)
        assert sorted(d for d in diag2 if d not in (0, 1)) == base


def test_ganea_kernel_1376(cat):
    ws = wedge_space(cat["SG128_1376"])
    assert sorted(ws.wedge_name(m) for m in ws.kernel_basis) == [
        "e12+e34",
        "e14",
        "e24",
    ]


def test_ganea_kernel_abelian_full(cat):
    ws = wedge_space(cat["C2xC2xC2"])
    r = ws.rank
    assert len(ws.kernel_basis) == r * (r - 1) // 2


def test_ganea_kernel_1377_dimension(cat):
    # the commutator matrix e12->x5, e13->x6, e14->x7, e23->x7 has rank 3,
    # so the kernel is 3-dimensional: {e14+e23, e24, e34}
    ws = wedge_space(cat["SG128_1377"])
    assert len(ws.kernel_basis) == 3
    assert sorted(ws.wedge_name(m) for m in ws.kernel_basis) == [
        "e14+e23",
        "e24",
        "e34",
    ]


def test_ganea_kernel_dimension_formula(cat):
    for name in ["SG128_1376", "SG128_1377", "SG256_9039"]:
        ws = wedge_space(cat[name])
        n_pairs = len(ws.pairs)
        comm_rank = 0
        from twogroups.linalg import gf2_rank

        comm_rank = gf2_rank(ws.comm_matrix)
        assert len(ws.kernel_basis) + comm_rank == n_pairs


def test_ganea_kernel_preconditions(cat):
    with pytest.raises(PcError):
        wedge_space(cat["G16384"])  # abelianization has Z/4 factors
