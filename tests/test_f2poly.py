import random

import pytest

from twogroups.f2poly import (
    F2Poly,
    PolyError,
    degree_membership,
    monomials_of_degree,
    parse_poly,
    sq1,
)
from twogroups.oracles import groebner, in_ideal_groebner, normal_form

V7 = tuple(f"X{i}" for i in range(1, 8))


def p(s, variables=V7):
    return parse_poly(s, variables)


def test_ring_identities():
    assert (p("X1") + p("X2")) ** 2 == p("X1^2+X2^2")
    f = p("X1^2+X2*X3")
    assert f + f == F2Poly.zero(V7)
    assert f * p("X5^2") == p("X1^2*X5^2+X2*X3*X5^2")
    assert str(p("X1^2+X2*X3")) == "X1^2+X2*X3"


def test_variable_universe_mismatch():
    with pytest.raises(PolyError):
        p("X1") + parse_poly("X1", ("X1", "X2"))


def test_sq1_values():
    assert sq1(p("X1^2+X2*X3")) == p("X2^2*X3+X2*X3^2")
    assert sq1(p("X4^2")).is_zero()
    assert sq1(p("X1^2+X1*X2+X2*X4+X3^2+X4^2")) == p(
        "X1^2*X2+X1*X2^2+X2^2*X4+X2*X4^2"
    )


def test_sq1_derivation_random():
    rng = random.Random(99)
    for _ in range(2000):
        def rand():
            terms = []
            for _ in range(rng.randrange(0, 4)):
                mono = [0] * 7
                for _ in range(rng.randrange(1, 4)):
                    mono[rng.randrange(7)] += 1
                terms.append(tuple(mono))
            return F2Poly(V7, terms)

        f, g = rand(), rand()
        assert sq1(f * g) == sq1(f) * g + f * sq1(g)
        assert sq1(sq1(f)).is_zero()


TEN_GENS = [
    "X1^2+X2*X3",
    "X2^2+X4*X5",
    "X3^2+X6*X7",
    "X2^2*X3+X2*X3^2",
    "X4^2",
    "X5^2",
    "X6^2",
    "X7^2",
    "X4^2*X5+X4*X5^2",
    "X6^2*X7+X6*X7^2",
]


def test_ten_generator_nonmembership():
    gens = [p(s) for s in TEN_GENS]
    cert = degree_membership(p("X1^4"), gens)
    assert not cert.member
    assert cert.verify(p("X1^4"))
    assert cert.residue is not None and not cert.residue.is_zero()


def test_membership_with_explicit_combination():
    gens = [p(s) for s in TEN_GENS]
    cert = degree_membership(p("X2^4"), gens)
    assert cert.member and cert.verify(p("X2^4"))
    beta = p("X2^2+X4*X5")
    assert beta * beta + p("X5^2") * p("X4^2") == p("X2^4")
    cert3 = degree_membership(p("X3^4"), gens)
    assert cert3.member and cert3.verify(p("X3^4"))
    gamma = p("X3^2+X6*X7")
    assert gamma * gamma + p("X6^2") * p("X7^2") == p("X3^4")


def test_zero_is_member():
    cert = degree_membership(F2Poly.zero(V7), [p("X1")])
    assert cert.member and cert.verify(F2Poly.zero(V7))


def test_degree_mismatch_rejected():
    with pytest.raises(PolyError):
        degree_membership(p("X1^2+X2"), [p("X1")])
    with pytest.raises(PolyError):
        degree_membership(p("X1^2"), [p("X1+X2^2")])


def test_groebner_basics():
    gb = groebner([p("X1")])
    assert [str(g) for g in gb] == ["X1"]
    assert in_ideal_groebner(p("X1*X2"), [p("X1")])
    assert not in_ideal_groebner(p("X2"), [p("X1")])
    assert normal_form(p("X1*X2"), gb).is_zero()


def test_groebner_agrees_on_ten_generator_ideal():
    gens = [p(s) for s in TEN_GENS]
    assert not in_ideal_groebner(p("X1^4"), gens)
    assert in_ideal_groebner(p("X2^4"), gens)
    assert in_ideal_groebner(p("X3^4"), gens)


def test_groebner_vs_membership_random():
    rng = random.Random(7)
    for _ in range(300):
        nvars = rng.randrange(2, 5)
        variables = tuple(f"X{i}" for i in range(1, nvars + 1))

        def rand_homog(d):
            monos = monomials_of_degree(variables, d)
            picked = [m for m in monos if rng.random() < 0.35]
            if not picked:
                picked = [monos[rng.randrange(len(monos))]]
            return F2Poly(variables, picked)

        gens = [rand_homog(rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        d = rng.randrange(1, 5)
        f = rand_homog(d)
        cert = degree_membership(f, gens, d)
        assert cert.member == in_ideal_groebner(f, gens)
        if cert.member:
            assert cert.verify(f)


def test_parse_rejects_garbage():
    with pytest.raises(PolyError):
        parse_poly("X1**2", V7)
    with pytest.raises(PolyError):
        parse_poly("Y1", V7)


def test_monomial_enumeration_is_descending_grlex():
    monos = monomials_of_degree(("X1", "X2"), 2)
    assert monos == [(2, 0), (1, 1), (0, 2)]
