"""Independent oracles used by the verification suite.

These deliberately avoid the production code paths: H_2 via the normalized
bar resolution (exact integer Smith forms), Kunneth for products of cyclic
groups, and literal multiplication-table groups.  They exist so that the
tails-method covers, the pc collector and the conjugacy machinery can be
checked against something that shares no code with them.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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
