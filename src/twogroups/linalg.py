"""Exact linear algebra: GF(2) bitset rows and integer Smith normal form.

GF(2) vectors are Python ints; bit i is coordinate i.  Matrices over Z are
lists of lists of ints (exact, arbitrary precision).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple


def iter_bits(x: int) -> Iterator[int]:
    """Yield set bit positions of x in ascending order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


class Gf2Span:
    """Incremental GF(2) row space with combination tracking.

    Rows are reduced against earlier pivots (pivot = lowest set bit by
    default), so `reduce` returns a canonical residue for a fixed insertion
    order.  Each basis row remembers which inserted vectors sum to it, which
    is what membership certificates are made of.
    """

    def __init__(self, vecs: Iterable[int] = ()) -> None:
        self._rows: List[Tuple[int, int]] = []  # (vector, combination mask)
        self._n_inserted = 0
        for vec in vecs:
            self.add(vec)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: int, combo: int) -> Tuple[int, int]:
        for row, rcombo in self._rows:
            pivot = row & -row
            if vec & pivot:
                vec ^= row
                combo ^= rcombo
        return vec, combo

    def add(self, vec: int) -> bool:
        """Insert a vector; return True if it enlarged the span."""
        idx = self._n_inserted
        self._n_inserted += 1
        vec, combo = self._reduce(vec, 1 << idx)
        if vec == 0:
            return False
        self._rows.append((vec, combo))
        self._rows.sort(key=lambda rc: rc[0] & -rc[0])
        return True

    def contains(self, vec: int) -> bool:
        return self._reduce(vec, 0)[0] == 0

    def reduce(self, vec: int) -> int:
        """Canonical residue of vec modulo the span."""
        return self._reduce(vec, 0)[0]

    def solve(self, vec: int) -> Optional[int]:
        """Mask over inserted vector indices summing to vec, or None."""
        residue, combo = self._reduce(vec, 0)
        if residue != 0:
            return None
        return combo

    def basis(self) -> List[int]:
        return [row for row, _ in self._rows]


def gf2_rank(rows: Sequence[int]) -> int:
    return Gf2Span(rows).rank


def gf2_kernel(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : for all rows r, parity(r & x) = 0}.

    Rows are vectors of length ncols; the kernel is the orthogonal
    complement of their span under the dot-product pairing.
    """
    basis = Gf2Span(rows).basis()
    # Row-reduce fully (RREF) so pivot columns are clean.
    basis = sorted(basis, key=lambda r: r & -r)
    for i, row in enumerate(basis):
        pivot = row & -row
        for j in range(len(basis)):
            if j != i and basis[j] & pivot:
                basis[j] ^= row
    pivots = [(row & -row).bit_length() - 1 for row in basis]
    pivot_set = set(pivots)
    kernel = []
    for col in range(ncols):
        if col in pivot_set:
            continue
        vec = 1 << col
        for row, piv in zip(basis, pivots):
            if row >> col & 1:
                vec |= 1 << piv
        kernel.append(vec)
    return kernel


def transpose_masks(masks: Sequence[int]) -> List[int]:
    """Rows of the matrix whose j-th column has the bits of masks[j]."""
    nbits = max((m.bit_length() for m in masks), default=0)
    return [
        sum(1 << j for j, m in enumerate(masks) if m >> bit & 1)
        for bit in range(nbits)
    ]


def elementary_coordinates(
    mult: Callable[[int, int], int], zero: Iterable[int], candidates: Iterable[int]
) -> Tuple[List[int], Dict[int, int]]:
    """Greedy GF(2) coordinates on an elementary abelian section.

    zero lists the elements with coordinate 0 (the subgroup divided out);
    each candidate not yet reached becomes the next basis vector.  Returns
    (basis, table) with table mapping every element reached to its mask.
    """
    table = dict.fromkeys(zero, 0)
    basis: List[int] = []
    for g in candidates:
        if g in table:
            continue
        bit = 1 << len(basis)
        for elem, mask in list(table.items()):
            table[mult(elem, g)] = mask | bit
        basis.append(g)
    return basis, table


def _swap_rows(m: List[List[int]], i: int, j: int) -> None:
    m[i], m[j] = m[j], m[i]


def _swap_cols(m: List[List[int]], i: int, j: int) -> None:
    for row in m:
        row[i], row[j] = row[j], row[i]


def smith_normal_form(
    matrix: Sequence[Sequence[int]],
) -> Tuple[List[int], List[List[int]], List[List[int]]]:
    """Diagonalize an integer matrix by unimodular row/column operations.

    Returns (diag, V, Vinv) where D = U * A * V for some unimodular U (not
    returned), V is unimodular with inverse Vinv, and diag lists the
    diagonal of D padded with zeros to the column count.  diag satisfies the
    divisibility chain d1 | d2 | ...
    """
    a = [list(row) for row in matrix]
    rows = len(a)
    cols = len(a[0]) if rows else 0
    v = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]
    vinv = [[1 if i == j else 0 for j in range(cols)] for i in range(cols)]

    def col_op(dst: int, src: int, q: int) -> None:
        # col_dst += q * col_src
        for row in a:
            row[dst] += q * row[src]
        for row in v:
            row[dst] += q * row[src]
        # inverse op on vinv: row_src -= q * row_dst
        vinv[src] = [x - q * y for x, y in zip(vinv[src], vinv[dst])]

    def swap_cols(i: int, j: int) -> None:
        _swap_cols(a, i, j)
        _swap_cols(v, i, j)
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def row_op(dst: int, src: int, q: int) -> None:
        a[dst] = [x + q * y for x, y in zip(a[dst], a[src])]

    def pivot_at(k: int) -> Optional[Tuple[int, int]]:
        best = None
        for i in range(k, rows):
            for j in range(k, cols):
                if a[i][j] != 0:
                    if best is None or abs(a[i][j]) < abs(a[best[0]][best[1]]):
                        best = (i, j)
        return best

    k = 0
    limit = min(rows, cols)
    while k < limit:
        loc = pivot_at(k)
        if loc is None:
            break
        i, j = loc
        if i != k:
            _swap_rows(a, i, k)
        if j != k:
            swap_cols(j, k)
        while True:
            # Clear column k with row ops, then row k with column ops;
            # repeat until both are clear (pivot may shrink to a divisor).
            dirty = False
            for i in range(k + 1, rows):
                if a[i][k] != 0:
                    q = a[i][k] // a[k][k]
                    row_op(i, k, -q)
                    if a[i][k] != 0:
                        _swap_rows(a, i, k)
                        dirty = True
            for j in range(k + 1, cols):
                if a[k][j] != 0:
                    q = a[k][j] // a[k][k]
                    col_op(j, k, -q)
                    if a[k][j] != 0:
                        swap_cols(j, k)
                        dirty = True
            if not dirty:
                break
        if a[k][k] < 0:
            for i in range(rows):
                a[i][k] = -a[i][k]
            for i in range(cols):
                v[i][k] = -v[i][k]
            vinv[k] = [-x for x in vinv[k]]
        k += 1

    # Enforce the divisibility chain d_k | d_{k+1}.
    changed = True
    while changed:
        changed = False
        for t in range(min(rows, cols) - 1):
            d1, d2 = a[t][t], a[t + 1][t + 1]
            if d1 != 0 and d2 % d1 != 0:
                col_op(t, t + 1, 1)
                # re-clear the 2x2 block
                while a[t + 1][t] != 0 or a[t][t + 1] != 0:
                    if a[t + 1][t] != 0:
                        q = a[t + 1][t] // a[t][t] if a[t][t] != 0 else 0
                        row_op(t + 1, t, -q)
                        if a[t + 1][t] != 0:
                            _swap_rows(a, t + 1, t)
                    if a[t][t + 1] != 0:
                        q = a[t][t + 1] // a[t][t] if a[t][t] != 0 else 0
                        col_op(t + 1, t, -q)
                        if a[t][t + 1] != 0:
                            swap_cols(t + 1, t)
                if a[t][t] < 0:
                    for i in range(rows):
                        a[i][t] = -a[i][t]
                    for i in range(cols):
                        v[i][t] = -v[i][t]
                    vinv[t] = [-x for x in vinv[t]]
                if a[t + 1][t + 1] < 0:
                    for i in range(rows):
                        a[i][t + 1] = -a[i][t + 1]
                    for i in range(cols):
                        v[i][t + 1] = -v[i][t + 1]
                    vinv[t + 1] = [-x for x in vinv[t + 1]]
                changed = True

    diag = [a[i][i] if i < rows else 0 for i in range(cols)]
    return diag, v, vinv


def abelian_invariants_from_relations(
    relation_rows: Sequence[Sequence[int]], ngens: int
) -> Tuple[List[int], List[List[int]]]:
    """Invariant factors > 1 of Z^ngens modulo the relation row space.

    Returns (orders, new_gens) where new_gens[j] is the exponent vector of
    the j-th new generator in terms of the old ones and orders[j] its order
    (0 means infinite).  Trivial factors are dropped.
    """
    rows = [list(r) for r in relation_rows]
    if not rows:
        rows = [[0] * ngens]
    diag, _v, vinv = smith_normal_form(rows)
    orders = []
    gens = []
    for j in range(ngens):
        d = diag[j] if j < len(diag) else 0
        if d == 1:
            continue
        orders.append(d)
        gens.append(list(vinv[j]))
    return orders, gens
