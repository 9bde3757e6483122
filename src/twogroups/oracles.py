"""Independent oracles used by the verification suite.

These deliberately avoid the production code paths: H_2 via the normalized
bar resolution (exact integer Smith forms), Kunneth for products of cyclic
groups, literal multiplication-table groups, and ideal membership by a
Buchberger Groebner basis.  They exist so that the tails-method covers, the
pc collector, the conjugacy machinery and the degree-d membership systems
can be checked against something that shares no code with them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from .f2poly import F2Poly, Monomial, PolyError, _grlex_key
from .linalg import smith_normal_form


class TableGroup:
    """Finite group given by an explicit multiplication table."""

    def __init__(self, name: str, elements: Sequence[str], table: Dict[Tuple[str, str], str]):
        self.name = name
        self.element_names = list(elements)
        self.table = dict(table)
        self.order = len(self.element_names)
        for a in self.element_names:
            for b in self.element_names:
                if (a, b) not in self.table:
                    raise ValueError(f"table missing ({a}, {b})")

    def mult(self, a: str, b: str) -> str:
        return self.table[(a, b)]

    @property
    def identity(self) -> str:
        for e in self.element_names:
            if all(self.mult(e, x) == x == self.mult(x, e) for x in self.element_names):
                return e
        raise ValueError("no identity element")

    def inv(self, a: str) -> str:
        e = self.identity
        for b in self.element_names:
            if self.mult(a, b) == e:
                return b
        raise ValueError("no inverse")

    def conjugacy_class_count(self) -> int:
        e_seen = set()
        count = 0
        for g in self.element_names:
            if g in e_seen:
                continue
            orbit = {self.mult(self.mult(self.inv(h), g), h) for h in self.element_names}
            e_seen |= orbit
            count += 1
        return count


def quaternion_table_group() -> TableGroup:
    """Q8 as literal quaternions."""
    units = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]

    def mul(a: str, b: str) -> str:
        sign = 1
        if a.startswith("-"):
            sign, a = -sign, a[1:]
        if b.startswith("-"):
            sign, b = -sign, b[1:]
        basic = {
            ("1", "1"): (1, "1"),
            ("1", "i"): (1, "i"), ("i", "1"): (1, "i"),
            ("1", "j"): (1, "j"), ("j", "1"): (1, "j"),
            ("1", "k"): (1, "k"), ("k", "1"): (1, "k"),
            ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"), ("k", "k"): (-1, "1"),
            ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
            ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
            ("k", "i"): (1, "j"), ("i", "k"): (-1, "j"),
        }
        s, r = basic[(a, b)]
        sign *= s
        return r if sign == 1 else "-" + r

    table = {(a, b): mul(a, b) for a in units for b in units}
    return TableGroup("Q8-units", units, table)


def bar_h2(table_group: TableGroup) -> Tuple[int, ...]:
    """H_2(G; Z) from the normalized bar resolution (degree 2 and 3).

    Exact over Z; intended for |G| <= 16.
    """
    e = table_group.identity
    elems = [g for g in table_group.element_names if g != e]
    idx1 = {g: i for i, g in enumerate(elems)}
    pairs = [(g, h) for g in elems for h in elems]
    idx2 = {p: i for i, p in enumerate(pairs)}
    mul = table_group.mult

    # d2[g|h] = [h] - [gh] + [g], normalized (identity terms dropped)
    m2 = [[0] * len(pairs) for _ in range(len(elems))]
    for (g, h), col in idx2.items():
        m2[idx1[h]][col] += 1
        gh = mul(g, h)
        if gh != e:
            m2[idx1[gh]][col] -= 1
        m2[idx1[g]][col] += 1

    diag, v, vinv = smith_normal_form(m2)
    ncols = len(pairs)
    kernel_pos = [j for j in range(ncols) if diag[j] == 0]
    kpos_index = {j: i for i, j in enumerate(kernel_pos)}

    def d3_coords(g: str, h: str, k: str) -> Tuple[int, ...]:
        # d3[g|h|k] = [h|k] - [gh|k] + [g|hk] - [g|h], normalized
        col_entries: List[Tuple[int, int]] = []

        def add(a: str, b: str, c: int) -> None:
            if a != e and b != e:
                col_entries.append((idx2[(a, b)], c))

        add(h, k, +1)
        add(mul(g, h), k, -1)
        add(g, mul(h, k), +1)
        add(g, h, -1)
        # coordinates y = Vinv @ w, using sparsity of w
        y = [0] * ncols
        for col, c in col_entries:
            for r in range(ncols):
                y[r] += c * vinv[r][col]
        for j in range(ncols):
            if j not in kpos_index and y[j] != 0:
                raise ValueError("bar boundary escaped the kernel lattice")
        return tuple(y[j] for j in kernel_pos)

    rows = set()
    for g in elems:
        for h in elems:
            for k in elems:
                rows.add(d3_coords(g, h, k))
    rows.discard(tuple(0 for _ in kernel_pos))
    if not rows:
        rows = {tuple(0 for _ in kernel_pos)}
    diag2, _v2, _vinv2 = smith_normal_form([list(r) for r in rows])
    invariants = []
    for j in range(len(kernel_pos)):
        d = diag2[j] if j < len(diag2) else 0
        if d == 0:
            raise ValueError("H_2 came out infinite; bar oracle inconsistent")
        if d != 1:
            invariants.append(d)
    return tuple(sorted(invariants))


def pc_to_table(group) -> TableGroup:
    """Multiplication table of a pc group (oracle-side representation)."""
    names = [group.element_str(g) for g in group.elements()]
    by_elem = {g: group.element_str(g) for g in group.elements()}
    table = {
        (by_elem[a], by_elem[b]): by_elem[group.mult(a, b)]
        for a in group.elements()
        for b in group.elements()
    }
    return TableGroup(f"table({group.name})", names, table)


def kunneth_h2_of_cyclic_product(orders: Sequence[int]) -> Tuple[int, ...]:
    """H_2 of a product of cyclic 2-groups: sum over i < j of Z/min(mi, mj)."""
    out = []
    for i in range(len(orders)):
        for j in range(i + 1, len(orders)):
            out.append(min(orders[i], orders[j]))
    return tuple(sorted(d for d in out if d > 1))


# -- Buchberger over GF(2), graded-lex ----------------------------------------


def _mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_div(a: Monomial, b: Monomial) -> Monomial:
    return tuple(x - y for x, y in zip(a, b))


def _mono_lcm(a: Monomial, b: Monomial) -> Monomial:
    return tuple(max(x, y) for x, y in zip(a, b))


def normal_form(f: F2Poly, basis: Sequence[F2Poly]) -> F2Poly:
    """Remainder of f under leading-term reduction by basis (grlex)."""
    lead = [(g.leading_monomial(), g) for g in basis if not g.is_zero()]
    work = f
    result = F2Poly.zero(f.vars)
    while not work.is_zero():
        lm = work.leading_monomial()
        for glm, g in lead:
            if _mono_divides(glm, lm):
                cof = F2Poly(f.vars, [_mono_div(lm, glm)])
                work = work + cof * g
                break
        else:
            head = F2Poly(f.vars, [lm])
            result = result + head
            work = work + head
    return result


def groebner(
    gens: Sequence[F2Poly], max_degree: Optional[int] = None
) -> List[F2Poly]:
    """Reduced Groebner basis (Buchberger, grlex, coefficients in GF(2)).

    With `max_degree` set and all generators homogeneous, S-pairs whose lcm
    exceeds that degree are skipped; because grlex is degree-compatible the
    result still decides membership for homogeneous f of degree <= max_degree.
    """
    basis = [g for g in gens if not g.is_zero()]
    if not basis:
        return []
    if max_degree is not None and any(not g.is_homogeneous() for g in basis):
        raise PolyError("degree truncation requires homogeneous generators")
    variables = basis[0].vars
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        fi, fj = basis[i], basis[j]
        lmi, lmj = fi.leading_monomial(), fj.leading_monomial()
        lcm = _mono_lcm(lmi, lmj)
        # Buchberger's first criterion: coprime leading monomials
        if lcm == tuple(x + y for x, y in zip(lmi, lmj)):
            continue
        if max_degree is not None and sum(lcm) > max_degree:
            continue
        s = F2Poly(variables, [_mono_div(lcm, lmi)]) * fi + F2Poly(
            variables, [_mono_div(lcm, lmj)]
        ) * fj
        r = normal_form(s, basis)
        if not r.is_zero():
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    # minimalize
    minimal: List[F2Poly] = []
    leads = [g.leading_monomial() for g in basis]
    for i, g in enumerate(basis):
        if any(
            j != i and _mono_divides(leads[j], leads[i])
            and (leads[j] != leads[i] or j < i)
            for j in range(len(basis))
        ):
            continue
        minimal.append(g)
    # reduce
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1 :]
        r = normal_form(g, others) if others else g
        if not r.is_zero():
            reduced.append(r)
    reduced.sort(key=lambda p: _grlex_key(p.leading_monomial()))
    return reduced


def in_ideal_groebner(
    f: F2Poly, gens: Sequence[F2Poly], max_degree: Optional[int] = None
) -> bool:
    if max_degree is None and f.is_homogeneous() and all(
        g.is_homogeneous() for g in gens
    ):
        max_degree = f.degree()
    gb = groebner(gens, max_degree=max_degree)
    if not gb:
        return f.is_zero()
    return normal_form(f, gb).is_zero()
