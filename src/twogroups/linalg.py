"""Exact linear algebra: GF(2) bitset rows and the 2-adic Smith normal form.

GF(2) vectors are Python ints; bit i is coordinate i.  Integer matrices are
lists of lists of ints, reduced modulo a power of two by the Smith form.
"""

from __future__ import annotations

from bisect import insort
from functools import reduce
from typing import Callable, Iterable, Iterator, List, Optional, Sequence, Tuple


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
        self._rows: List[Tuple[int, int, int]] = []  # (pivot bit, vector, combination mask)
        self._n_inserted = 0
        for vec in vecs:
            self.add(vec)

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def _reduce(self, vec: int, combo: int) -> Tuple[int, int]:
        for pivot, row, rcombo in self._rows:
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
        insort(self._rows, (vec & -vec, vec, combo))  # pivots are distinct
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
        return [row for _, row, _ in self._rows]


def gf2_rank(rows: Sequence[int]) -> int:
    return Gf2Span(rows).rank


def gf2_rref(rows: Sequence[int]) -> List[int]:
    """Reduced row echelon form of the span of rows: one row per pivot (its
    lowest set bit), in ascending pivot order, each pivot clear in every
    other row."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            if row & b & -b:
                row ^= b
        if row:
            low = row & -row
            basis = [b ^ row if b & low else b for b in basis] + [row]
    return sorted(basis, key=lambda b: b & -b)


def span_elements(basis: List[int]) -> List[int]:
    """The XOR of each subset of basis, at the index whose bits name it."""
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def linear_map(images: List[int]) -> Callable[[int], int]:
    """The GF(2)-linear map sending bit j to images[j]: its value at g is
    the XOR of one table entry per byte of g."""
    tables = [(s, span_elements(images[s:s + 8])) for s in range(0, len(images), 8)]

    def apply(g: int) -> int:
        out = 0
        for shift, table in tables:
            out ^= table[g >> shift & 255]
        return out
    return apply


def least_images(vectors: Iterable[int], n: int) -> List[int]:
    """The least element of x_j ^ span(vectors) for each j < n: over an
    echelon basis with distinct highest set bits, descending,
    x = min(x, x ^ row) clears each pivot, and adding a nonzero member of
    the span then sets a pivot and no higher bit.  x_j is its own image
    exactly when j is no pivot.  The map is GF(2)-linear: its `linear_map`
    gives the least member of any g ^ span."""
    echelon: List[int] = []

    def least(x: int) -> int:
        return reduce(lambda x, row: min(x, x ^ row), echelon, x)
    for z in vectors:
        z = least(z)
        if z:
            echelon = sorted(echelon + [z], reverse=True)
    return [least(1 << j) for j in range(n)]


def gf2_kernel(rows: Sequence[int], ncols: int) -> List[int]:
    """Basis of {x : for all rows r, parity(r & x) = 0}.

    Rows are vectors of length ncols; the kernel is the orthogonal
    complement of their span under the dot-product pairing.
    """
    basis = gf2_rref(rows)
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


def _fields(x: int, count: int, nbytes: int) -> List[int]:
    """The count fields of nbytes bytes each in x, least significant first."""
    data = x.to_bytes(count * nbytes, "little")
    return [int.from_bytes(data[p:p + nbytes], "little") for p in range(0, len(data), nbytes)]


def smith_normal_form(
    matrix: Sequence[Sequence[int]], modulus: int
) -> Tuple[List[int], List[List[int]], List[List[int]]]:
    """Smith normal form over Z/modulus, for a power-of-two modulus.

    Returns (diag, V, Vinv) with U * A * V = D and V * Vinv = I (mod
    modulus) for some U invertible mod modulus (not returned); V is a
    product of swaps and integer transvections, so it lifts to a unimodular
    integer matrix.  diag lists the diagonal of D padded with zeros to the
    column count; each entry is a power of two dividing the next, and 0
    means "divisible by modulus".  When the cokernel of A over Z is a free
    part plus a 2-group of exponent below modulus, diag is its Smith form
    with the free columns at the zeros, exactly.

    Each step pivots on an entry of least 2-adic valuation (the first row
    holding one, then its first column), scales its odd part away (a unit),
    and clears its column by row operations and its row by column
    operations.  Valuations never drop, so no repair pass follows.

    With modulus 2^b, a row of A is one int of w-bit fields, w >= 2b + 1 in
    whole bytes, column j in field cols - 1 - j, so the first nonzero column
    is read off bit_length; V is packed by columns, Vinv by rows.  Fields
    stay below 2^b, so x + q y (q < 2^b) carries out of no field: a row
    operation is one multiply-add with the negated row, and one mask.  An
    entry of valuation <= v has a bit of pat[v] set.
    """
    if modulus < 2 or modulus & (modulus - 1):
        raise ValueError(f"modulus must be a power of two >= 2, got {modulus}")
    mask, bits = modulus - 1, modulus.bit_length() - 1
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    nbytes = (2 * bits + 8) // 8
    w = 8 * nbytes
    ones = sum(1 << (p * w) for p in range(cols))
    low, over = ones * mask, ones * modulus
    pat = [ones * ((2 << v) - 1) for v in range(bits)]
    last = cols - 1
    a = [sum((x & mask) << (last - j) * w for j, x in enumerate(row) if x) for row in matrix]
    v = [1 << (j * w) for j in range(cols)]
    vinv = list(v)
    diag = [0] * cols
    for k in range(min(rows, cols)):
        hits = ((val, i) for val, p in enumerate(pat) for i in range(k, rows) if a[i] & p)
        val, i = next(hits, (0, None))
        if i is None:
            break
        j = last - ((a[i] & pat[val]).bit_length() - 1) // w
        a[i], a[k] = a[k], a[i]
        shift = (last - k) * w
        if j != k:
            sj = (last - j) * w
            for i in range(k, rows):
                r = a[i]
                x = ((r >> shift) ^ (r >> sj)) & mask
                if x:
                    a[i] = r ^ (x << shift | x << sj)
            v[j], v[k] = v[k], v[j]
            vinv[j], vinv[k] = vinv[k], vinv[j]
        unit = pow(a[k] >> shift >> val, -1, modulus)
        top = a[k] * unit & low
        neg = (over - top) & low
        for i in range(k + 1, rows):
            r = a[i]
            if r.bit_length() > shift:
                a[i] = (r + (r >> shift + val) * neg) & low
        neg_vk, vk = (over - v[k]) & low, vinv[k]
        for j, x in enumerate(reversed(_fields(top & (1 << shift) - 1, last - k, nbytes)), k + 1):
            q = x >> val
            if q:
                v[j] = (v[j] + q * neg_vk) & low
                vk = (vk + q * vinv[j]) & low
        vinv[k] = vk
        diag[k] = 1 << val
    v_cols = [_fields(c, cols, nbytes) for c in v]
    return diag, [list(r) for r in zip(*v_cols)], [_fields(r, cols, nbytes) for r in vinv]
