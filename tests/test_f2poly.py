import random

import pytest

from conftest import (
    grlex_key,
    tuple_degree_membership,
    tuple_degree_slice,
    tuple_groebner,
    tuple_mul,
    tuple_normal_form,
    tuple_pow,
    tuple_sq1,
    tuple_str,
    xor_all,
)
from twogroups.f2poly import (
    MAX_DEGREE,
    DegreeSlice,
    F2Poly,
    PolyError,
    degree_membership,
    monomials_of_degree,
    parse_poly,
    sq1,
)
from twogroups.linalg import iter_bits
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


def test_operations_match_the_public_constructor():
    # +, *, ** and sq1 build their results without re-validation; each must
    # equal the polynomial the public constructor makes of the raw terms
    rng = random.Random(7)

    def rand():
        return F2Poly(V7, [tuple(rng.randrange(3) for _ in V7) for _ in range(rng.randrange(5))])

    for _ in range(300):
        f, g = rand(), rand()
        for got, want in [
            (f + g, F2Poly(V7, list(f.monomials) + list(g.monomials))),
            (f * g, F2Poly(V7, tuple_mul(f.monomials, g.monomials))),
            (sq1(f), F2Poly(V7, tuple_sq1(f.monomials))),
            (f ** 3, F2Poly(V7, tuple_pow(f.monomials, 3, len(V7)))),
            (f ** 0, F2Poly(V7, [(0,) * len(V7)])),
        ]:
            assert (got, type(got.vars), type(got.monomials)) == (want, tuple, frozenset)
            assert hash(got) == hash(want)


# -- the packed layer against the tuple oracles of conftest ----------------------
# r = 0, 1, 5 and 16 variables, with degrees and single exponents drawn up to
# MAX_DEGREE, the largest the packed fields hold


def universe(nvars):
    return tuple(f"X{i}" for i in range(1, nvars + 1))


def rand_mono(rng, nvars, degree):
    """A monomial of the given degree (of degree 0 without variables), its
    exponents cut at random points."""
    if not nvars:
        return ()
    cuts = sorted(rng.randrange(degree + 1) for _ in range(nvars - 1))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))


def rand_poly(rng, variables, max_degree, terms=4):
    # the top degree, where one exponent can reach the bound, is drawn as
    # often as all the others together
    degrees = [rng.choice([max_degree, rng.randrange(max_degree + 1)])
               for _ in range(rng.randrange(terms + 1))]
    return F2Poly(variables, [rand_mono(rng, len(variables), d) for d in degrees])


def same(p, monos):
    """p holds exactly `monos`: as tuples, and packed (degree field included)
    as the public constructor packs them."""
    return p.monomials == monos and p == F2Poly(p.vars, monos)


def rand_homog(rng, variables, degree, terms=3, scale=1):
    monos = [rand_mono(rng, len(variables), degree) for _ in range(rng.randrange(1, terms + 1))]
    return F2Poly(variables, [tuple(scale * e for e in m) for m in monos])


@pytest.mark.parametrize("nvars", [0, 1, 5, 16])
def test_packed_arithmetic_matches_the_tuple_oracle(nvars):
    rng = random.Random(3100 + nvars)
    variables = universe(nvars)
    half = MAX_DEGREE // 2
    for _ in range(150):
        f, g = rand_poly(rng, variables, half), rand_poly(rng, variables, MAX_DEGREE - half)
        h = rand_poly(rng, variables, MAX_DEGREE - 1)
        c, k = rand_poly(rng, variables, MAX_DEGREE // 3, terms=2), rng.randrange(4)
        tf, tg, th = f.monomials, g.monomials, h.monomials
        assert same(f + g, tf ^ tg)
        assert same(f * g, tuple_mul(tf, tg))
        assert same(sq1(h), tuple_sq1(th))
        assert same(c ** k, tuple_pow(c.monomials, k, nvars))
        assert (f == g) == (tf == tg)
        for p, t in [(f, tf), (g, tg), (h, th)]:
            assert p.degree() == max(map(sum, t), default=-1)
            assert p.is_homogeneous() == (len(set(map(sum, t))) <= 1)
            assert str(p) == tuple_str(variables, t)
            assert not t or p.leading_monomial() == max(t, key=grlex_key)
            twin = F2Poly(variables, sorted(t) + [m for m in t if rng.random() < 0.5] * 2)
            assert twin == p and hash(twin) == hash(p)
        drawn = [rand_mono(rng, nvars, rng.randrange(MAX_DEGREE + 1)) for _ in range(6)]
        p = F2Poly(variables, drawn + drawn[:3])
        assert p.monomials == xor_all(drawn + drawn[:3])
        assert p.degree() == max(map(sum, xor_all(drawn + drawn[:3])), default=-1)


def test_exponents_are_nonnegative_ints_under_the_bound():
    v2 = ("X1", "X2")
    for bad in [(-1, 1), (1, -1), (1.5, 0), ("1", 0), (MAX_DEGREE, 1), (MAX_DEGREE + 1, 0),
                (1 << 16, 0), (1 << 80, 0)]:
        with pytest.raises(PolyError):
            F2Poly(v2, [bad])
    x1, x2 = F2Poly.var(v2, "X1"), F2Poly.var(v2, "X2")
    top = F2Poly(v2, [(MAX_DEGREE, 0)])
    assert str(top) == f"X1^{MAX_DEGREE}" and top.degree() == MAX_DEGREE
    assert x2 ** MAX_DEGREE == F2Poly(v2, [(0, MAX_DEGREE)])
    assert sq1(F2Poly(v2, [(MAX_DEGREE - 1, 0)])).is_zero()  # even: no degree is added
    for overflow in [lambda: top * x2, lambda: x1 ** (MAX_DEGREE + 1),
                     lambda: (x1 + x2) ** (MAX_DEGREE + 1),
                     lambda: sq1(F2Poly(v2, [(MAX_DEGREE - 1, 1)])),
                     lambda: parse_poly("X1^40000", v2),
                     lambda: parse_poly(f"X1^{MAX_DEGREE}*X2", v2),
                     lambda: parse_poly("X1^20000*X1^20000", v2),
                     # an S-pair of lcm X1^20000 X2^20000
                     lambda: groebner([F2Poly(v2, [(20000, 1), (0, 20001)]),
                                       F2Poly(v2, [(1, 20000)])])]:
        with pytest.raises(PolyError):
            overflow()
    assert top * F2Poly.one(v2) == top and (top * F2Poly.zero(v2)).is_zero()


@pytest.mark.parametrize("nvars, degrees", [(0, [0]), (1, [1, 2, MAX_DEGREE]),
                                            (5, [1, 2, 3, 4]), (16, [2, 3])])
def test_degree_slices_match_the_tuple_oracle(nvars, degrees):
    rng = random.Random(3200 + nvars)
    variables = universe(nvars)
    for _ in range(40):
        d = rng.choice(degrees)
        gens = [rand_homog(rng, variables, rng.randrange(min(d, 1), d + 1))
                for _ in range(rng.randrange(1, 5))]
        f = rand_homog(rng, variables, d, terms=6)
        f = f if rng.random() < 0.9 else F2Poly.zero(variables)
        tgens = [g.monomials for g in gens]
        member, data = tuple_degree_membership(f.monomials, tgens, d, nvars)
        cert = degree_membership(f, gens, d)
        assert cert.member == member and cert.verify(f)
        if member:
            assert len(cert.coefficients) == len(data)
            assert all(same(c, t) for c, t in zip(cert.coefficients, data))
        else:
            assert same(cert.residue, data)
        monos, span, products = tuple_degree_slice(tgens, d, nvars)
        dslice = DegreeSlice(gens, d, variables)
        assert monomials_of_degree(variables, d) == monos
        assert (cert.system_rows, cert.system_cols) in [(len(products), len(monos)), (0, 0)]
        vec = sum(1 << monos.index(m) for m in f.monomials)
        residue = frozenset(monos[i] for i in iter_bits(span.reduce(vec)))
        assert same(dslice.reduce(f), residue)
        if d <= 4:
            assert in_ideal_groebner(f, gens) == member


@pytest.mark.parametrize("nvars", [0, 1, 5, 16])
def test_buchberger_on_packed_terms_matches_the_tuple_oracle(nvars):
    # generators of degree <= 3 scaled by `scale`, so every lcm of two of
    # them stays under the bound and every S-pair of later ones is past
    # max_degree; f's exponents add offsets up to the bound
    rng = random.Random(3300 + nvars)
    variables = universe(nvars)
    scale = MAX_DEGREE // 6
    with pytest.raises(PolyError):
        normal_form(F2Poly.one(variables), [F2Poly.one(universe(nvars + 1))])
    for _ in range(25):
        gens = [rand_homog(rng, variables, rng.randrange(1, 4), scale=scale)
                for _ in range(rng.randrange(1, 4))]
        tgens = [g.monomials for g in gens]
        gb = groebner(gens, max_degree=MAX_DEGREE)
        tgb = tuple_groebner(tgens, max_degree=MAX_DEGREE)
        assert len(gb) == len(tgb) and all(same(g, t) for g, t in zip(gb, tgb))
        for _ in range(4):
            terms = []
            for _ in range(rng.randrange(1, 5)):
                pre = rng.randrange(6)
                base = [scale * e for e in rand_mono(rng, nvars, pre)]
                offset = rand_mono(rng, nvars, rng.randrange(MAX_DEGREE - scale * pre + 1))
                terms.append(tuple(b + o for b, o in zip(base, offset)))
            f = F2Poly(variables, terms)
            assert same(normal_form(f, gb), tuple_normal_form(f.monomials, tgb))
            assert same(normal_form(f, gens), tuple_normal_form(f.monomials, tgens))
