"""Graded multivariate polynomials over GF(2), Sq^1, ideal membership.

Polynomials live in F2[X_1, ..., X_r] with all variables of degree one.
A monomial is an exponent tuple; a polynomial is a frozenset of monomials
(characteristic 2: f + f = 0).  The monomial order everywhere is graded
lexicographic with X_1 > X_2 > ... (grlex).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .linalg import Gf2Span, iter_bits

Monomial = Tuple[int, ...]


class PolyError(ValueError):
    pass


def _grlex_key(m: Monomial) -> Tuple:
    # sorts ascending; leading monomial = max
    return (sum(m), m)


class F2Poly:
    """A polynomial over GF(2) in a fixed variable universe."""

    __slots__ = ("vars", "monomials")

    def __init__(self, variables: Tuple[str, ...], monomials: Iterable[Monomial] = ()):
        self.vars = tuple(variables)
        acc: set = set()
        for m in monomials:
            m = tuple(m)
            if len(m) != len(self.vars):
                raise PolyError("monomial length does not match variable count")
            if m in acc:
                acc.discard(m)
            else:
                acc.add(m)
        self.monomials: FrozenSet[Monomial] = frozenset(acc)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, variables: Sequence[str]) -> "F2Poly":
        return cls(tuple(variables), ())

    @classmethod
    def one(cls, variables: Sequence[str]) -> "F2Poly":
        return cls(tuple(variables), [tuple(0 for _ in variables)])

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
        return F2Poly(self.vars, self.monomials ^ other.monomials)

    def __mul__(self, other: "F2Poly") -> "F2Poly":
        self._check(other)
        acc: set = set()
        for a in self.monomials:
            for b in other.monomials:
                m = tuple(x + y for x, y in zip(a, b))
                if m in acc:
                    acc.discard(m)
                else:
                    acc.add(m)
        return F2Poly(self.vars, acc)

    def __pow__(self, k: int) -> "F2Poly":
        if k < 0:
            raise PolyError("negative power")
        result = F2Poly.one(self.vars)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, F2Poly)
            and self.vars == other.vars
            and self.monomials == other.monomials
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.monomials))

    def __bool__(self) -> bool:
        return bool(self.monomials)

    # -- grading ------------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.monomials

    def degree(self) -> int:
        if not self.monomials:
            return -1
        return max(sum(m) for m in self.monomials)

    def is_homogeneous(self) -> bool:
        degs = {sum(m) for m in self.monomials}
        return len(degs) <= 1

    def leading_monomial(self) -> Monomial:
        if not self.monomials:
            raise PolyError("zero polynomial has no leading monomial")
        return max(self.monomials, key=_grlex_key)

    # -- display ----------------------------------------------------------------

    def sorted_monomials(self) -> List[Monomial]:
        return sorted(self.monomials, key=_grlex_key, reverse=True)

    def __str__(self) -> str:
        if not self.monomials:
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
    acc: set = set()
    for m in f.monomials:
        for i, e in enumerate(m):
            if e & 1:
                bumped = list(m)
                bumped[i] += 1
                t = tuple(bumped)
                if t in acc:
                    acc.discard(t)
                else:
                    acc.add(t)
    return F2Poly(f.vars, acc)


def monomials_of_degree(variables: Sequence[str], d: int) -> List[Monomial]:
    """All degree-d monomials, descending grlex (index 0 = largest)."""
    nvars = len(variables)
    out: List[Monomial] = []

    def rec(prefix: List[int], remaining: int, pos: int) -> None:
        if pos == nvars - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for e in range(remaining, -1, -1):
            rec(prefix + [e], remaining - e, pos + 1)

    if nvars == 0:
        return [()] if d == 0 else []
    rec([], d, 0)
    # rec enumerates in descending lex order already; grlex on fixed degree = lex
    return out


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
    generator order; `products` lists the (generator index, m) of each row.
    Coordinates are over the degree-d monomials in descending grlex.
    """

    def __init__(self, gens: Sequence[F2Poly], d: int, variables: Sequence[str]):
        self.variables = tuple(variables)
        self.monomials = monomials_of_degree(self.variables, d)
        self._index = {m: i for i, m in enumerate(self.monomials)}
        self.span = Gf2Span()
        self.products: List[Tuple[int, Monomial]] = []
        for gi, g in enumerate(gens):
            dg = g.degree()
            if g.is_zero() or dg > d:
                continue
            for m in monomials_of_degree(self.variables, d - dg):
                self.span.add(self.vector(g * F2Poly(self.variables, [m])))
                self.products.append((gi, m))

    def vector(self, p: F2Poly) -> int:
        v = 0
        for m in p.monomials:
            v |= 1 << self._index[m]
        return v

    def reduce(self, p: F2Poly) -> F2Poly:
        """Canonical residue of a degree-d polynomial modulo the slice."""
        residue = self.span.reduce(self.vector(p))
        return F2Poly(self.variables, [self.monomials[i] for i in iter_bits(residue)])


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
    rows, cols = len(dslice.products), len(dslice.monomials)
    if combo is None:
        return MembershipCertificate(
            member=False,
            degree=d,
            generators=list(gens),
            residue=dslice.reduce(f),
            system_rows=rows,
            system_cols=cols,
        )
    coeffs = [F2Poly.zero(f.vars) for _ in gens]
    for k in iter_bits(combo):
        gi, m = dslice.products[k]
        coeffs[gi] = coeffs[gi] + F2Poly(f.vars, [m])
    cert = MembershipCertificate(
        member=True,
        degree=d,
        generators=list(gens),
        coefficients=coeffs,
        system_rows=rows,
        system_cols=cols,
    )
    if not cert.verify(f):
        raise PolyError("internal error: certificate failed re-expansion")
    return cert
