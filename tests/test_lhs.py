import pytest

from conftest import RKM_LARGER, rkm
from twogroups.catalog import fingerprint
from twogroups.f2poly import parse_poly, sq1
from twogroups.ktheory import central_extension_from_hom
from twogroups.lhs import (
    LhsError,
    _reduce_mod,
    d2_table,
    dead_quartic_subspace,
    extension_class_rep,
    frattini_subgroup,
    lhs_data_for,
    survives_deg4,
)
from twogroups.pcgroup import PcGroup, derived_subgroup, homomorphism, subgroup

# frozen expected differential tables, keyed by the pc index of the
# kernel coordinate (zeta_i dual to generator i)
D2_G16384 = {
    8: "X1^2+X2*X3",
    9: "X2^2+X4*X5",
    10: "X3^2+X6*X7",
    11: "X4^2",
    12: "X5^2",
    13: "X6^2",
    14: "X7^2",
}
D2_9039 = {
    5: "X1^2+X1*X2+X2*X4+X3^2+X4^2",
    6: "X1*X3+X2^2+X3^2+X4^2",
    7: "X1^2+X2*X3",
    8: "X1^2+X1*X4",
}
D3_9039_RAW = {
    5: "X1^2*X2+X1*X2^2+X2^2*X4+X2*X4^2",
    6: "X1^2*X3+X1*X3^2",
    7: "X2^2*X3+X2*X3^2",
    8: "X1^2*X4+X1*X4^2",
}
D2_8129 = {
    5: "X1*X3+X3*X4+X4^2",
    6: "X1^2+X1*X3+X2^2",
    7: "X1^2+X2*X3",
    8: "X1*X2+X1*X3",
}
D2_1376 = {
    5: "X1*X2+X3*X4+X4^2",
    6: "X1^2+X1*X3+X2^2",
    7: "X1^2+X2*X3",
}


def table_of(cat, name):
    return lhs_data_for(cat[name])


def test_d2_tables_reproduce_expected_values(cat):
    for name, table in [
        ("G16384", D2_G16384),
        ("SG256_9039", D2_9039),
        ("SG256_8129", D2_8129),
        ("SG128_1376", D2_1376),
    ]:
        data = table_of(cat, name)
        assert set(data.v_labels) == set(table)
        for label, lit in table.items():
            assert data.d2[label] == parse_poly(lit, data.variables), (name, label)


def test_d3_g16384(cat):
    data = table_of(cat, "G16384")
    # zeta_1 (generator 8): expected raw Kudo value, nonzero mod I2
    assert data.d3_raw[8] == parse_poly("X2^2*X3+X2*X3^2", data.variables)
    assert not data.d3[8].is_zero()
    # the expected representative lies in the same coset
    diff = data.d3_raw[8] + data.d3[8]
    assert _reduce_mod(data.ideal_gens, diff, 3).is_zero()
    for label in data.v_labels:
        if label != 8:
            assert data.d3[label].is_zero(), label


def test_d3_9039(cat):
    data = table_of(cat, "SG256_9039")
    for label, lit in D3_9039_RAW.items():
        assert data.d3_raw[label] == parse_poly(lit, data.variables)


def test_kudo_identity_all_shipped(cat):
    for name, g in sorted(cat.items()):
        try:
            data = lhs_data_for(g)
        except LhsError:
            assert name == "C8"  # Frattini subgroup not elementary abelian
            continue
        for label in data.v_labels:
            assert data.d3[label] == _reduce_mod(
                data.ideal_gens, sq1(data.d2[label]), 3
            ), (name, label)


def test_split_extension_d2_zero(cat):
    base = cat["C2xC2"]
    n = base.n
    prod = PcGroup(
        "C2xC2xC2v", n + 1, list(base.powers) + [0],
        [list(r) + [0] for r in base.comms] + [[0] * (n + 1)],
    )
    v = subgroup(prod, [prod.generators[n]])
    data = d2_table(prod, v)
    assert all(data.d2[l].is_zero() for l in data.v_labels)


def test_d2_preconditions(cat):
    g = cat["SG256_8177"]
    not_central = subgroup(g, [g.generators[0]])
    with pytest.raises(LhsError):
        d2_table(g, not_central)
    with pytest.raises(LhsError):
        lhs_data_for(cat["C8"])


def test_survival_g16384(cat):
    data = table_of(cat, "G16384")
    assert survives_deg4(data, data.poly("X1^4")).verdict == "survives_page4"
    for a in range(2, 8):
        v = survives_deg4(data, data.poly(f"X{a}^4"))
        assert v.verdict == "dies"
        assert v.certificate.verify(data.poly(f"X{a}^4"))


def test_survival_9039(cat):
    data = table_of(cat, "SG256_9039")
    assert survives_deg4(data, data.poly("X1^4")).verdict == "dies"
    assert survives_deg4(data, data.poly("X2^4+X3^4")).verdict == "survives_page4"
    assert survives_deg4(data, data.poly("X3^4+X4^4")).verdict == "survives_page4"
    assert survives_deg4(data, data.poly("X2^4+X3^4+X4^4")).verdict == "dies"
    masks, polys = dead_quartic_subspace(data)
    assert sorted(str(p) for p in polys) == ["X1^4", "X2^4+X3^4+X4^4"]


def test_survival_zero_and_monotone(cat):
    data = table_of(cat, "SG256_9039")
    from twogroups.f2poly import F2Poly

    z = survives_deg4(data, F2Poly.zero(data.variables))
    assert z.verdict == "dies"
    # enlarging the generator list can only turn survivors into deaths
    survivor = data.poly("X2^4+X3^4")
    bigger = list(data.ideal_closed) + [data.poly("X2^4+X3^4")]
    from twogroups.f2poly import degree_membership

    assert degree_membership(survivor, bigger, 4).member


def test_theta_8129_tower(cat):
    pit, pi = cat["SG256_8129"], cat["SG128_1376"]
    data = lhs_data_for(pi)
    alpha = homomorphism(pit, pi, [pi.generators[i] for i in range(7)] + [pi.generators[4]])
    rep = extension_class_rep(central_extension_from_hom(pit, alpha), data)
    assert rep.theta == data.poly("X1*X2+X1*X3")


def test_theta_split_is_zero(cat):
    pi = cat["SG128_1376"]
    data = lhs_data_for(pi)
    n = pi.n
    prod = PcGroup(
        "SG128_1376xC2", n + 1, list(pi.powers) + [0],
        [list(r) + [0] for r in pi.comms] + [[0] * (n + 1)],
    )
    alpha = homomorphism(prod, pi, [pi.generators[i] for i in range(n)] + [0])
    rep = extension_class_rep(central_extension_from_hom(prod, alpha), data)
    assert rep.theta.is_zero()


def _attach_quadratic_class(base, theta, name):
    """Central extension of `base` by C2 classified by the inflation of the
    quadratic form theta: append one generator t and add it to the relation
    words picked out by theta's coefficients.  Independent of the
    sigma-component rule, so it serves as its oracle."""
    n = base.n
    t_bit = 1 << n
    powers = [p for p in base.powers] + [0]
    comms = [list(r) + [0] for r in base.comms] + [[0] * (n + 1)]
    var_index = {v: i for i, v in enumerate(theta.vars)}
    for mono in theta.monomials:
        support = [i for i, e in enumerate(mono) if e]
        if len(support) == 1:
            a = int(theta.vars[support[0]][1:]) - 1
            powers[a] ^= t_bit
        else:
            a = int(theta.vars[support[0]][1:]) - 1
            b = int(theta.vars[support[1]][1:]) - 1
            comms[min(a, b)][max(a, b)] ^= t_bit
    return PcGroup(name, n + 1, powers, comms)


def test_theta_8129_reconstruction_oracle(cat):
    pi, pit = cat["SG128_1376"], cat["SG256_8129"]
    data = lhs_data_for(pi)
    theta = data.poly("X1*X2+X1*X3")
    rebuilt = _attach_quadratic_class(pi, theta, "rebuilt8129")
    assert fingerprint(rebuilt) == fingerprint(pit)


def test_theta_8177_tower_value_and_oracle(cat):
    # catalog-derived quotient hom x8 -> x7 onto the shipped SG128_1377
    pit, pi = cat["SG256_8177"], cat["SG128_1377"]
    data = lhs_data_for(pi)
    alpha = homomorphism(pit, pi, [pi.generators[i] for i in range(7)] + [pi.generators[6]])
    rep = extension_class_rep(central_extension_from_hom(pit, alpha), data)
    # with the complement {x5, x6, x7} the sigma-components are the
    # x8-coordinates: x1^2 = x5x6x8, x4^2 = x8, [x1,x4] = x8
    assert rep.theta == data.poly("X1^2+X1*X4+X4^2")
    rebuilt = _attach_quadratic_class(pi, rep.theta, "rebuilt8177")
    assert fingerprint(rebuilt) == fingerprint(pit)


def test_alpha_naturality_on_the_tower(cat):
    pit, pi = cat["SG256_8129"], cat["SG128_1376"]
    lt, lb = lhs_data_for(pit), lhs_data_for(pi)
    # alpha identifies the W variables; pulling back d2(zeta5) of the base
    # gives d2(zeta5~) + d2(zeta8~) of the cover
    pulled = parse_poly(str(lb.d2[5]), lt.variables)
    assert pulled == lt.d2[5] + lt.d2[8]


def test_frattini(cat):
    g = cat["SG128_1376"]
    frat = frattini_subgroup(g)
    assert frat.elements == subgroup(g, [g.element_from_indices([i]) for i in [5, 6, 7]]).elements


def test_frattini_matches_the_closure_of_squares_and_commutators(small_family):
    # the oracle: the normal closure of every square and the derived
    # subgroup's generators, against the span of the relation values
    for g in small_family + [rkm(*a) for a in RKM_LARGER]:
        closure = subgroup(
            g, [g.square(x) for x in g.generators] + list(derived_subgroup(g).gens),
            normal_closure=True,
        )
        frat = frattini_subgroup(g)
        assert frat.elements == closure.elements, g.name
        assert subgroup(g, frat.gens).elements == frat.elements, g.name


def test_survival_matches_known_cohomology(cat):
    # H^*(C4; F2) = exterior(X1) tensor F2[degree-2 class]: X1^2 transgresses,
    # so X1^4 dies; for elementary abelian groups the cohomology is polynomial
    # and every pure quartic survives
    c4 = lhs_data_for(cat["C4"])
    assert c4.d2[2] == parse_poly("X1^2", c4.variables)
    assert survives_deg4(c4, c4.poly("X1^4")).verdict == "dies"
    e8 = lhs_data_for(cat["C2xC2xC2"])
    for var in e8.variables:
        assert survives_deg4(e8, e8.poly(f"{var}^4")).verdict == "survives_page4"
