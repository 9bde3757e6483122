import itertools

import pytest

from conftest import RKM, RKM_LARGER, rkm
from twogroups.homology import commuting_wedge_span, schur_cover, commuting_wedges, wedge_space
from twogroups.ktheory import central_extension_from_hom, sk1
from twogroups.lhs import lhs_data_for
from twogroups.linalg import iter_bits
from twogroups.ooze import (
    OozeError,
    _parity_kernel_generators,
    adapted_decomposition,
    compatible_pair_check,
    conjecture62_scan,
    delta_map,
    lambda4_detect,
)
from twogroups.pcgroup import (
    PcGroup,
    abelianization,
    conjugacy_classes,
    derived_subgroup,
    homomorphism,
    subgroup,
)


def m16():
    return PcGroup(
        "M16", 4,
        [0, 1 << 2, 1 << 3, 0],
        [[0, 1 << 3, 0, 0], [0] * 4, [0] * 4, [0] * 4],
    )


def c8_c4_twisted():
    """C8 x| C4 with b a b^-1 = a^5."""
    return PcGroup(
        "C8xC4tw", 5,
        [1 << 1, 0, 1 << 3, 1 << 4, 0],
        [[0, 0, 1 << 4, 0, 0], [0] * 5, [0] * 5, [0] * 5, [0] * 5],
    )


def cyclic_product(*orders):
    """C_m1 x C_m2 x ... as a pc group: each factor is a chain of squares."""
    powers = []
    for m in orders:
        start = len(powers)
        chain = m.bit_length() - 1
        powers += [1 << (start + j + 1) for j in range(chain - 1)] + [0]
    n = len(powers)
    name = "x".join(f"C{m}" for m in orders)
    return PcGroup(name, n, powers, [[0] * n for _ in range(n)], validate=True)


def test_delta_g16384(cat):
    g = cat["G16384"]
    dm = delta_map(g)
    assert dm.rank == 3
    # [z4] .. [z7] are killed (generators 11..14, bits 10..13)
    for bit in [10, 11, 12, 13]:
        assert dm.value(1 << bit) == 0
    assert len(dm.kernel_basis) == len(dm.h0_reps) - 3


def test_delta_9039(cat):
    g = cat["SG256_9039"]
    dm = delta_map(g)
    assert dm.rank == 1
    for i in range(4):
        assert dm.value(1 << i) != 0


def test_delta_abelian_trivial_target(cat):
    dm = delta_map(cat["C2xC4"])
    assert dm.rank == 0
    assert all(v == 0 for v in dm.matrix)


def test_delta_surjective_everywhere(cat):
    from twogroups.ktheory import h1_wh_prime

    for name, g in sorted(cat.items()):
        dm = delta_map(g)
        assert dm.rank == h1_wh_prime(g).rank, name


def test_adapted_decomposition_g16384(cat):
    g = cat["G16384"]
    dec = adapted_decomposition(g)
    assert dec.k == 3
    assert dec.orders[:3] == [2, 2, 2]
    # first three factors are classes built from x1, x2, x3
    names = [g.element_str(x) for x in dec.factor_gens[:3]]
    for nm in names:
        assert nm.split("*")[0] in {"x1", "x2", "x3"}


def test_adapted_decomposition_9039(cat):
    dec = adapted_decomposition(cat["SG256_9039"])
    assert dec.k == 1
    assert dec.orders == [2, 2, 2, 2]


def test_adapted_decomposition_requires_nonzero_rank(cat):
    with pytest.raises(OozeError):
        adapted_decomposition(cat["C2xC4"])


def test_adapted_decomposition_diagonal_unchanged(cat):
    # when delta is already diagonal on the given decomposition, the factor
    # subgroups come back unchanged (up to ordering)
    g = cat["SG256_9039"]
    dm = delta_map(g)
    dec = adapted_decomposition(g, dm)
    dec2 = adapted_decomposition(g, dm)
    assert [g.element_str(x) for x in dec.factor_gens] == [
        g.element_str(x) for x in dec2.factor_gens
    ]


def test_lambda4_verdicts(cat):
    assert lambda4_detect(cat["G16384"]).verdict == "nonzero"
    assert lambda4_detect(cat["SG256_9039"]).verdict == "zero"
    for name in ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4"]:
        assert lambda4_detect(cat[name]).verdict == "zero", name
    # the compatible-pair base groups have rank-zero H^1(Wh'), so the
    # composite through it vanishes for them as well
    assert lambda4_detect(cat["SG128_1376"]).verdict == "zero"
    assert lambda4_detect(cat["SG128_1377"]).verdict == "zero"


def test_lambda4_certificate_is_verified(cat):
    g = cat["G16384"]
    report = lambda4_detect(g)
    cert = report.certificate
    assert cert["survivor"] == "X1^4"
    assert cert["survival"]["verdict"] == "survives_page4"
    assert cert["kernel_order"] == g.order // 2
    # delta(v1) != 0 re-checked independently
    dm = delta_map(g)
    v1 = g.collect([(int(t[1:]), 1) for t in cert["v1"].split("*")])
    assert dm.value(v1) != 0


def test_parity_kernel_generators_match_closure(cat):
    # the oracle is the closure of the lex-sorted kernel; the masks are the
    # mod-2 coordinates of pi^ab and their sums, each a homomorphism onto
    # Z/2 (at most 16 per group)
    checked = 0
    for g in list(cat.values()) + [rkm(*a) for a in RKM + RKM_LARGER]:
        coords = abelianization(g).gen_coords
        factors = [
            sum((row[j] & 1) << b for b, row in enumerate(coords))
            for j in range(len(coords[0]))
        ]
        for combo in range(1, min(1 << len(factors), 17)):
            mask = 0
            for j in iter_bits(combo):
                mask ^= factors[j]
            kernel = [x for x in g.elements() if not (x & mask).bit_count() & 1]
            oracle = subgroup(g, sorted(kernel, key=g.lexkey))
            assert oracle.order == g.order // 2, (g.name, mask)
            assert _parity_kernel_generators(g.n, mask) == list(oracle.gens), (g.name, mask)
            checked += 1
    assert checked == 234


def _tower(cat):
    pi, pit = cat["SG128_1376"], cat["SG256_8129"]
    alpha = homomorphism(pit, pi, [pi.generators[i] for i in range(7)] + [pi.generators[4]])
    return pi, central_extension_from_hom(pit, alpha)


def test_compatible_pair_positive(cat):
    pi, ext = _tower(cat)
    data = lhs_data_for(pi)
    report = compatible_pair_check(pi, ext, data.poly("X1*X2+X1*X3"), data.poly("X3*X4"))
    assert report.verdict == "compatible"
    assert all(c.status == "pass" for c in report.conditions)


def test_compatible_pair_bad_z_inconclusive(cat):
    # z = X1*X4 pairs against e14, which is a commuting wedge ([x1,x4] = 1),
    # so the sufficient condition (vii) fails and the verdict must degrade
    # to "inconclusive", never "incompatible"
    pi, ext = _tower(cat)
    data = lhs_data_for(pi)
    report = compatible_pair_check(pi, ext, data.poly("X1*X2+X1*X3"), data.poly("X1*X4"))
    by_name = {c.name: c.status for c in report.conditions}
    assert by_name["vii_z_kills_commuting_wedges"] == "inconclusive"
    assert report.verdict != "compatible"
    assert "incompatible" != report.verdict or any(
        c.status == "fail" for c in report.conditions
    )


def test_compatible_pair_split_cover_fails_ii(cat):
    pi = cat["SG128_1376"]
    data = lhs_data_for(pi)
    n = pi.n
    prod = PcGroup(
        "SG128_1376xC2", n + 1, list(pi.powers) + [0],
        [list(r) + [0] for r in pi.comms] + [[0] * (n + 1)],
    )
    alpha = homomorphism(prod, pi, [pi.generators[i] for i in range(n)] + [0])
    ext = central_extension_from_hom(prod, alpha)
    report = compatible_pair_check(pi, ext, data.poly("X1*X2+X1*X3"), data.poly("X3*X4"))
    by_name = {c.name: c.status for c in report.conditions}
    assert by_name["ii_cover_class_matches_theta"] == "fail"
    assert report.verdict == "incompatible"
    # theta = 0 names the split class correctly, but the sigma generator is
    # not inside [cover, cover], so (ii) still fails
    report0 = compatible_pair_check(pi, ext, data.poly("0"), data.poly("X3*X4"))
    by_name0 = {c.name: c.status for c in report0.conditions}
    assert by_name0["ii_cover_class_matches_theta"] == "fail"


def test_compatible_pair_rejects_malformed(cat):
    pi, ext = _tower(cat)
    data = lhs_data_for(pi)
    with pytest.raises(OozeError):
        compatible_pair_check(pi, ext, data.poly("X1"), data.poly("X3*X4"))
    with pytest.raises(OozeError):
        compatible_pair_check(pi, ext, data.poly("X1*X2+X3"), data.poly("X3*X4"))


def test_commuting_wedge_span_1376(cat):
    g = cat["SG128_1376"]
    ws = wedge_space(g)
    span = commuting_wedge_span(g, ws)
    names = sorted(ws.wedge_name(m) for m in span.basis())
    assert names == ["e14", "e24"]


def test_vii_consistent_with_sk1(cat):
    # for shipped groups with elementary abelianization and central derived
    # subgroup: if commuting wedges exhaust the stem part then SK1 is trivial
    for name in ["C2xC2", "C2xC2xC2", "SG128_1376", "SG128_1377"]:
        g = cat[name]
        cover = schur_cover(g)
        wedges = commuting_wedges(g, cover)
        exhausted = wedges.elements == cover.stem_part.elements
        trivial = sk1(g, cover).order == 1
        assert exhausted == trivial, name


def test_conj62_c8(cat):
    seqs = conjecture62_scan(cat["C8"])
    assert len(seqs) == 2
    big = next(s for s in seqs if s.cyclic_order == 8)
    assert big.n_order == 1 and big.t_order == 2 and big.w_order == 4
    assert big.class_count == 1 and big.parity == "odd"
    assert all(not s.homological_filters_applied for s in seqs)


def test_conj62_m16(cat):
    seqs = conjecture62_scan(m16())
    assert seqs  # has a C4 quotient
    for s in seqs:
        assert s.cyclic_order >= 4
        assert s.t_order == 2 * s.n_order
        assert 2 * s.w_order == 16


def test_conj62_exponent_two_ab_is_empty(cat):
    # pi^ab of SG128_1377 is elementary abelian: no cyclic quotient of
    # order >= 4 exists, so the scan is empty but well-formed
    assert conjecture62_scan(cat["SG128_1377"]) == []


def test_conj62_abelian(cat):
    seqs = conjecture62_scan(cat["C2xC4"])
    assert all(s.parity in ("odd", "even") for s in seqs)
    assert seqs, "C2xC4 has a C4 quotient"


def discrete_logs(group, factor_gens, orders):
    """g -> exponents of its [G,G]-coset along the factor generators, by
    listing each coset x [G,G] for x a product of factor generator powers."""
    derived = derived_subgroup(group).elements
    logs = {}
    for exps in itertools.product(*(range(m) for m in orders)):
        x = group.identity
        for f, e in zip(factor_gens, exps):
            x = group.mult(x, group.power(f, e))
        for d in derived:
            logs[group.mult(x, d)] = exps
    assert len(logs) == group.order
    return logs


def test_adapted_coordinates_match_discrete_logs(cat):
    # the coordinate functionals follow each column operation of the
    # construction: SG256_9039 and R(4,4) seed 26 take two each, G16384 none
    for g in [cat["G16384"], cat["SG256_9039"], rkm(4, 4, 26)]:
        dec = adapted_decomposition(g)
        logs = discrete_logs(g, dec.factor_gens, dec.orders)
        assert all(dec.basis.coordinates(x) == c for x, c in logs.items()), g.name


def conj62_oracle(group):
    """conjecture62_scan by brute force: N, T and W as element sets, every
    homomorphism onto Z/2^k tried, and kernels deduplicated by set; the
    pi^ab coordinates are discrete logs read off the listed [G,G]-cosets,
    not the linear map of `Abelianization.coordinates`."""
    ab = abelianization(group)
    images = discrete_logs(group, ab.factor_gens, ab.invariants)
    classes = conjugacy_classes(group)
    out = []
    for k in range(2, max(ab.invariants, default=1).bit_length()):
        target = 1 << k
        choices = [range(0, target, target // min(m, target)) for m in ab.invariants]
        kernels = set()
        for combo in itertools.product(*choices):
            phi = {g: sum(c * e for c, e in zip(combo, x)) % target for g, x in images.items()}
            if len(set(phi.values())) != target:
                continue  # not onto Z/2^k
            n = frozenset(g for g, v in phi.items() if v == 0)
            if n in kernels:
                continue
            kernels.add(n)
            t = {g for g, v in phi.items() if v % (target // 2) == 0}
            w = {g for g, v in phi.items() if v % 2 == 0}
            inside = [cls for cls in classes if set(cls.elements) <= t - n]
            assert sum(len(cls.elements) for cls in inside) == len(t - n)
            out.append({
                "N_order": len(n),
                "T_order": len(t),
                "W_order": len(w),
                "cyclic_quotient_order": target,
                "classes_in_T_minus_N": len(inside),
                "parity": "odd" if len(inside) % 2 else "even",
                "homological_filters_applied": False,
            })
    return out


def test_conj62_matches_element_set_oracle(small_family):
    groups = small_family + [m16(), c8_c4_twisted()]
    groups += [cyclic_product(*orders) for orders in [(4, 8), (2, 4, 8), (4, 16), (16,)]]
    nonempty = 0
    for g in groups:
        got = [s.as_dict() for s in conjecture62_scan(g)]
        assert got == conj62_oracle(g), g.name
        nonempty += bool(got)
    assert nonempty >= 10


def in_one_coset_by_members(group, cls, normal):
    """Every member of the class lies in rep * normal: the per-member check
    that conjecture62_scan made before it read the [rep, x_i]."""
    r_inv = group.inv(cls.rep)
    return all(group.mult(r_inv, x) in normal for x in cls.elements)


def test_conj62_commutator_check_matches_member_check(cat, small_family):
    # a class r^G lies in one coset of a normal K exactly when every
    # [r, x_i] is in K; conjecture62_scan reads K = [G,G] as the kernel of
    # the pi^ab coordinates.  Other normal K make both sides fail too.
    groups = small_family + [m16(), c8_c4_twisted(), cat["SG256_9039"]]
    groups += [rkm(*args) for args in RKM_LARGER]
    outcomes = set()
    for g in groups:
        ab = abelianization(g)
        normals = [subgroup(g, [x], normal_closure=True) for x in (g.generators[0], 1 << g.n - 1)]
        for cls in conjugacy_classes(g):
            images = g.comm_images(cls.rep)
            assert in_one_coset_by_members(g, cls, ab.derived), g.name
            assert not any(any(ab.coordinates(c)) for c in images), g.name
            for k in normals:
                by_members = in_one_coset_by_members(g, cls, k)
                assert by_members == all(c in k for c in images), (g.name, cls.rep)
                outcomes.add(by_members)
    assert outcomes == {False, True}


def test_lambda4_undecided_on_non_lhs_group():
    # C8 x| C4 with b a b^-1 = a^5: H^1(Wh') has rank 1, but the Frattini
    # subgroup is not elementary abelian, so neither the certificate nor the
    # sound zero argument applies; the honest verdict is "undecided"
    from twogroups.ktheory import h1_wh_prime

    g = c8_c4_twisted()
    assert h1_wh_prime(g).rank == 1
    report = lambda4_detect(g)
    assert report.verdict == "undecided"
    assert any("Frattini" in r for r in report.reasons)


def test_cover_invariants_stable_under_relabeling(cat):
    # a consistent relabeling of the presentation (swap x1/x2, rotate
    # x5 -> x6 -> x7 -> x5) gives an isomorphic group; every isomorphism
    # invariant we compute must agree
    from twogroups.catalog import fingerprint
    from twogroups.homology import schur_cover

    g = cat["SG128_1376"]
    perm = {1: 2, 2: 1, 3: 3, 4: 4, 5: 6, 6: 7, 7: 5}

    def map_word(w):
        out = 0
        for b in range(g.n):
            if w >> b & 1:
                out |= 1 << (perm[b + 1] - 1)
        return out

    powers = [0] * g.n
    comms = [[0] * g.n for _ in range(g.n)]
    for i in range(g.n):
        powers[perm[i + 1] - 1] = map_word(g.powers[i])
        for j in range(i + 1, g.n):
            a, b = perm[i + 1] - 1, perm[j + 1] - 1
            comms[min(a, b)][max(a, b)] = map_word(g.comms[i][j])
    h = PcGroup("SG128_1376_relabel", g.n, powers, comms)
    assert fingerprint(h) == fingerprint(g)
    assert schur_cover(h).h2_invariants == schur_cover(g).h2_invariants
    assert sk1(h).invariants == sk1(g).invariants
    assert lambda4_detect(h).verdict == lambda4_detect(g).verdict
