"""Graded multivariate polynomials over GF(2), Sq^1, ideal membership.

Polynomials live in F2[X_1, ..., X_r] with all variables of degree one.
A polynomial is a frozenset of monomials (characteristic 2: f + f = 0),
each packed into one int of r + 1 fields of FIELD_BITS bits: the degree on
top, then the exponents of X_1, ..., X_r.  So the monomial order, graded
lexicographic with X_1 > X_2 > ... (grlex), is int order, and a product of
monomials is a sum.  Degrees are at most MAX_DEGREE, which leaves the top
bit of each field a guard: no sum carries out of a field, and a divides b
iff ((b | G) - a) & G == G for G = `guard_mask`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .linalg import Gf2Span, iter_bits

Monomial = Tuple[int, ...]

FIELD_BITS = 16
MAX_DEGREE = (1 << (FIELD_BITS - 1)) - 1


class PolyError(ValueError):
    pass


def _check_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise PolyError(f"degree {d} exceeds the bound {MAX_DEGREE}")


def _pack(m: Monomial) -> int:
    packed = degree = 0
    for e in m:
        if not isinstance(e, int) or e < 0:
            raise PolyError(f"exponent {e!r} is not a nonnegative int")
        packed = packed << FIELD_BITS | e
        degree += e
    _check_degree(degree)
    return degree << (FIELD_BITS * len(m)) | packed


def _unpack(t: int, nvars: int) -> Monomial:
    return tuple(t >> (FIELD_BITS * i) & ((1 << FIELD_BITS) - 1) for i in range(nvars - 1, -1, -1))


def guard_mask(nvars: int) -> int:
    """The guard bits of a packed monomial in nvars variables."""
    return sum(1 << (FIELD_BITS * i) for i in range(nvars + 1)) << (FIELD_BITS - 1)


class F2Poly:
    """A polynomial over GF(2) in a fixed variable universe; `terms` holds
    its packed monomials."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables: Tuple[str, ...], monomials: Iterable[Monomial] = ()):
        self.vars = tuple(variables)
        acc: set = set()
        for m in monomials:
            m = tuple(m)
            if len(m) != len(self.vars):
                raise PolyError("monomial length does not match variable count")
            acc ^= {_pack(m)}
        self.terms: FrozenSet[int] = frozenset(acc)

    @classmethod
    def _of(cls, variables: Tuple[str, ...], terms: FrozenSet[int]) -> "F2Poly":
        # the ring operations' results: already reduced and packed
        poly = object.__new__(cls)
        poly.vars = variables
        poly.terms = terms
        return poly

    @property
    def monomials(self) -> FrozenSet[Monomial]:
        """The terms as exponent tuples."""
        return frozenset(_unpack(t, len(self.vars)) for t in self.terms)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "F2Poly":
        return cls(tuple(variables), ())

    @classmethod
    def one(cls, variables: Sequence[str]) -> "F2Poly":
        return cls._of(tuple(variables), frozenset([0]))

    @classmethod
    def var(cls, variables: Sequence[str], name: str) -> "F2Poly":
        variables = tuple(variables)
        idx = variables.index(name)
        m = [0] * len(variables)
        m[idx] = 1
        return cls(variables, [tuple(m)])

    # -- ring operations --------------------------------------------------------

    def _check(self, other: "F2Poly") -> None:
        if self.vars != other.vars:
            raise PolyError(f"variable universes differ: {self.vars} vs {other.vars}")

    def __add__(self, other: "F2Poly") -> "F2Poly":
        self._check(other)
        return F2Poly._of(self.vars, self.terms ^ other.terms)

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        self._check(other)
        _check_degree(self.degree() + other.degree())  # F2[X] is a domain
        acc: set = set()
        for a in self.terms:
            for b in other.terms:
                m = a + b
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
        return F2Poly._of(self.vars, frozenset(acc))

    def __pow__(self, k: int) -> "F2Poly":
        if k < 0:
            raise PolyError("negative power")
        result = F2Poly.one(self.vars)
        for bit in bin(k)[2:]:  # squares of the result: none past its degree
            result = result * result
            if bit == "1":
                result = result * self
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Poly)
            and self.vars == other.vars
            and self.terms == other.terms
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.terms))

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- grading ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        if not self.terms:
            return -1
        return max(self.terms) >> (FIELD_BITS * len(self.vars))

    def is_homogeneous(self) -> bool:
        shift = FIELD_BITS * len(self.vars)
        return not self.terms or min(self.terms) >> shift == max(self.terms) >> shift

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise PolyError("zero polynomial has no leading monomial")
        return _unpack(max(self.terms), len(self.vars))

    # -- display ----------------------------------------------------------------

    def sorted_monomials(self) -> List[Monomial]:
        return [_unpack(t, len(self.vars)) for t in sorted(self.terms, reverse=True)]

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        terms = []
        for m in self.sorted_monomials():
            factors = []
            for name, e in zip(self.vars, m):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            terms.append("*".join(factors) if factors else "1")
        return "+".join(terms)

    __repr__ = __str__


_TERM_FACTOR_RE = re.compile(r"^([A-Za-z][A-Za-z0-9~]*)(?:\^(\d+))?$")


def parse_poly(text: str, variables: Sequence[str]) -> F2Poly:
    """Parse literals like "X1^2+X2*X3"; "0" and "1" are allowed."""
    variables = tuple(variables)
    text = text.replace(" ", "")
    if not text:
        raise PolyError("empty polynomial literal")
    acc = F2Poly.zero(variables)
    for term in text.split("+"):
        if term == "0":
            continue
        mono = [0] * len(variables)
        if term != "1":
            for factor in term.split("*"):
                m = _TERM_FACTOR_RE.match(factor)
                if not m:
                    raise PolyError(f"bad factor {factor!r}")
                name, exp = m.group(1), int(m.group(2) or 1)
                if name not in variables:
                    raise PolyError(f"unknown variable {name!r}")
                mono[variables.index(name)] += exp
        acc = acc + F2Poly(variables, [tuple(mono)])
    return acc


def sq1(f: F2Poly) -> F2Poly:
    """Steenrod Sq^1: the derivation with Sq^1(X) = X^2 on degree-1 variables."""
    _check_degree(f.degree() + 1)
    shift = FIELD_BITS * len(f.vars)
    units = [1 << i for i in range(0, shift, FIELD_BITS)]
    acc: set = set()
    for t in f.terms:
        # X^e -> e X^(e+1): one more in an odd exponent, and in the degree
        for u in units:
            if t & u:
                m = t + u + (1 << shift)
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
    return F2Poly._of(f.vars, frozenset(acc))


def monomials_of_degree(variables: Sequence[str], d: int) -> List[Monomial]:
    """All degree-d monomials, descending grlex (index 0 = largest)."""
    return list(_monomials(len(variables), d))


@lru_cache(maxsize=256)
def _monomials(nvars: int, d: int) -> Tuple[Monomial, ...]:
    # descending lex order, which is grlex on a fixed degree
    if nvars <= 1:
        return ((d,) * nvars,) if d >= 0 and (nvars or d == 0) else ()
    return tuple((e,) + m for e in range(d, -1, -1) for m in _monomials(nvars - 1, d - e))


@lru_cache(maxsize=32)
def _degree_terms(nvars: int, d: int) -> Tuple[Tuple[int, ...], Dict[int, int]]:
    # the packed degree-d monomials, descending, and each one's position (shared: read only)
    terms = tuple(map(_pack, _monomials(nvars, d)))
    return terms, {t: i for i, t in enumerate(terms)}


@dataclass
class MembershipCertificate:
    """Outcome of a bounded-degree ideal membership test.

    For members, `coefficients[i]` multiplies `generators[i]` and the
    products sum to f exactly (verified before return).  For non-members,
    `residue` is the canonical reduction of f against the row space and
    `system_rows`/`system_cols` are the linear system dimensions.
    """

    member: bool
    degree: int
    generators: List[F2Poly]
    coefficients: Optional[List[F2Poly]] = None
    residue: Optional[F2Poly] = None
    system_rows: int = 0
    system_cols: int = 0

    def verify(self, f: F2Poly) -> bool:
        if not self.member:
            return self.residue is not None and not self.residue.is_zero()
        acc = F2Poly.zero(f.vars)
        for g, c in zip(self.generators, self.coefficients):
            acc = acc + g * c
        return acc == f

    def as_dict(self) -> Dict:
        out = {
            "member": self.member,
            "degree": self.degree,
            "system_rows": self.system_rows,
            "system_cols": self.system_cols,
        }
        if self.member:
            out["coefficients"] = {
                str(g): str(c)
                for g, c in zip(self.generators, self.coefficients)
                if not c.is_zero()
            }
        else:
            out["residue"] = str(self.residue)
        return out


class DegreeSlice:
    """The degree-d slice of the ideal <gens> as a GF(2) row space.

    One row g * m per generator g and monomial m of degree d - deg(g), in
    generator order; `products` lists the (generator index, packed m) of
    each row.  Coordinate i is the i-th packed degree-d monomial in
    descending grlex, `terms[i]`.
    """

    def __init__(self, gens: Sequence[F2Poly], d: int, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.terms, self._index = _degree_terms(len(self.variables), d)
        self.span = Gf2Span()
        self.products: List[Tuple[int, int]] = []
        for gi, g in enumerate(gens):
            dg = g.degree()
            if g.is_zero() or dg > d:
                continue
            for m in _degree_terms(len(self.variables), d - dg)[0]:
                # the row of g * m: g's terms shifted by m, all distinct
                self.span.add(sum(1 << self._index[t + m] for t in g.terms))
                self.products.append((gi, m))

    def vector(self, p: F2Poly) -> int:
        return sum(1 << self._index[t] for t in p.terms)

    def reduce(self, p: F2Poly) -> F2Poly:
        """Canonical residue of a degree-d polynomial modulo the slice."""
        residue = self.span.reduce(self.vector(p))
        return F2Poly._of(self.variables, frozenset(self.terms[i] for i in iter_bits(residue)))


def degree_membership(
    f: F2Poly, gens: Sequence[F2Poly], d: Optional[int] = None
) -> MembershipCertificate:
    """Decide whether f lies in the degree-d slice of the ideal <gens>.

    All inputs must be homogeneous; since the ideal is then graded, for
    homogeneous f of degree d membership in the ideal equals membership in
    the GF(2) span of {g * m : g in gens, m monomial, deg(g*m) = d}.
    """
    if d is None:
        d = f.degree()
    if f.is_zero():
        return MembershipCertificate(
            member=True,
            degree=d,
            generators=list(gens),
            coefficients=[F2Poly.zero(f.vars) for _ in gens],
        )
    if not f.is_homogeneous() or f.degree() != d:
        raise PolyError(f"f must be homogeneous of degree {d}")
    for g in gens:
        if not g.is_homogeneous():
            raise PolyError("generators must be homogeneous")
        if g.vars != f.vars:
            raise PolyError("variable universes differ")
    dslice = DegreeSlice(gens, d, f.vars)
    combo = dslice.span.solve(dslice.vector(f))
    rows, cols = len(dslice.products), len(dslice.terms)
    if combo is None:
        return MembershipCertificate(
            member=False,
            degree=d,
            generators=list(gens),
            residue=dslice.reduce(f),
            system_rows=rows,
            system_cols=cols,
        )
    coeffs: List[set] = [set() for _ in gens]
    for k in iter_bits(combo):
        gi, m = dslice.products[k]
        coeffs[gi].add(m)  # each (gi, m) is one row
    cert = MembershipCertificate(
        member=True,
        degree=d,
        generators=list(gens),
        coefficients=[F2Poly._of(f.vars, frozenset(c)) for c in coeffs],
        system_rows=rows,
        system_cols=cols,
    )
    if not cert.verify(f):
        raise PolyError("internal error: certificate failed re-expansion")
    return cert
