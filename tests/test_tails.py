"""The tails rows of the generic collector against the tuple collector
they replaced.

`TailCollector` below is the former second collector of `pcgroup`, kept
verbatim as the reference: it carries the tails of the extension of G by
one free central tail per relation as a tuple of integers, while
`pcgroup.tails_rows` packs them into one int on the generic collector.
Both must give the same rows, in the same order.
"""

import random
from typing import Dict, List, Tuple

import pytest

from conftest import RKM_LARGER, relabel, rkm
from twogroups.homology import cover_presentation
from twogroups.linalg import iter_bits
from twogroups.pcgroup import PcError, PcGroup, tails_rows


class TailCollector:
    """Collection in the extension of G by one formal central tail per relation.

    Tail r_i (i < n) belongs to the power relation x_i^2 = w_i, and tail
    n + idx(i,j) to [x_i, x_j] = w_ij.  Elements are (bits, tails) with
    tails a tuple of integer exponents; rewriting by a relation adds +-1 to
    the matching tail.  Used for integral consistency rows (Schur covers).
    """

    def __init__(self, group: PcGroup):
        self.g = group
        n = group.n
        self.n = n
        pair_index = {}
        idx = n
        for i in range(n):
            for j in range(i + 1, n):
                pair_index[(i, j)] = idx
                idx += 1
        self.m = idx
        self.pair_index = pair_index
        self._zero = (0,) * self.m
        self._inv_cache: Dict[int, Tuple[int, Tuple[int, ...]]] = {}
        self._conj_cache: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {}

    def _tadd(self, a: Tuple[int, ...], b: Tuple[int, ...]) -> Tuple[int, ...]:
        return tuple(x + y for x, y in zip(a, b))

    def _bump(self, t: Tuple[int, ...], idx: int, delta: int) -> Tuple[int, ...]:
        lst = list(t)
        lst[idx] += delta
        return tuple(lst)

    def mult(self, a, b):
        bits_a, tail = a
        bits_b, tail_b = b
        tail = self._tadd(tail, tail_b)
        for j in iter_bits(bits_b):
            bits_a, tail = self._mult_gen(bits_a, tail, j)
        return bits_a, tail

    def _mult_gen(self, u: int, tail: Tuple[int, ...], t: int):
        upper = u & self.g._mask_above[t]
        lower = u ^ upper
        cc, dt = self._conj_elem(upper, t)
        tail = self._tadd(tail, dt)
        if lower >> t & 1:
            lower ^= 1 << t
            tail = self._bump(tail, t, +1)
            rest, dt2 = self.mult((self.g.powers[t], self._zero), (cc, self._zero))
            tail = self._tadd(tail, dt2)
        else:
            lower |= 1 << t
            rest = cc
        return lower | rest, tail

    def _conj_elem(self, c: int, t: int):
        res = (0, self._zero)
        for j in iter_bits(c):
            res = self.mult(res, self._conj_gen(j, t))
        return res

    def _conj_gen(self, j: int, t: int):
        key = (j, t)
        hit = self._conj_cache.get(key)
        if hit is not None:
            return hit
        w = self.g.comms[t][j]
        iw, dt = self.inv((w, self._zero))
        dt = self._bump(dt, self.pair_index[(t, j)], -1)
        bits = (1 << j) | iw
        out = (bits, dt)
        self._conj_cache[key] = out
        return out

    def inv(self, a):
        bits, tail = a
        ib, dt = self._inv_bits(bits)
        return ib, self._tadd(dt, tuple(-x for x in tail))

    def _inv_bits(self, bits: int):
        if bits == 0:
            return 0, self._zero
        hit = self._inv_cache.get(bits)
        if hit is not None:
            return hit
        low = bits & -bits
        j = low.bit_length() - 1
        h = bits ^ low
        ih, t1 = self._inv_bits(h)
        a, t2 = self._mult_gen(ih, t1, j)
        t2 = self._bump(t2, j, -1)
        ipw, t3 = self._inv_bits(self.g.powers[j])
        res, t4 = self.mult((a, t2), (ipw, t3))
        out = (res, t4)
        self._inv_cache[bits] = out
        return out

    def gen(self, i: int):
        return (1 << i, self._zero)

    def consistency_rows(self) -> List[List[int]]:
        """Integral relations among the tails from the overlap checks."""
        rows = []
        gens = [self.gen(i) for i in range(self.n)]

        def check(a, b, c):
            lb, lt = self.mult(self.mult(a, b), c)
            rb, rt = self.mult(a, self.mult(b, c))
            if lb != rb:
                raise PcError("x-part mismatch in tails collection (inconsistent input)")
            row = [x - y for x, y in zip(lt, rt)]
            if any(row):
                rows.append(row)

        for k in range(self.n):
            check(gens[k], gens[k], gens[k])
            for j in range(k):
                check(gens[k], gens[k], gens[j])
                check(gens[k], gens[j], gens[j])
                for i in range(j):
                    check(gens[k], gens[j], gens[i])
        return rows


def relabellable(group):
    """`relabel` needs a central block of at least two generators that
    holds every relation value."""
    support = 0
    for w in list(group.powers) + [w for row in group.comms for w in row]:
        support |= w
    c = (support & -support).bit_length() - 1
    return (support and group.n - c >= 2 and not any(group.powers[c:])
            and not any(any(r) for r in group.comms[c:]))


@pytest.fixture(scope="module")
def oracle_inputs(cat, small_family):
    groups = small_family + [rkm(*a) for a in RKM_LARGER]
    rng = random.Random(17)
    copies = [relabel(g, rng) for g in groups if relabellable(g)]
    covers = [cover_presentation(cat[name]).cover for name in ("SG128_1376", "SG128_1377")]
    return groups + copies + covers


def test_tails_rows_match_tuple_collector(oracle_inputs):
    assert len(oracle_inputs) > 30
    assert sum(not g.is_fast for g in oracle_inputs) >= 7
    for g in oracle_inputs:
        rows = tails_rows(g)
        assert rows == TailCollector(g).consistency_rows(), g.name
        assert all(len(r) == g.n * (g.n + 1) // 2 for r in rows), g.name


def _unchecked(n, powers, comms):
    table = [[0] * n for _ in range(n)]
    for (i, j), w in comms.items():
        table[i][j] = w
    return PcGroup(f"Bad{n}", n, powers, table, validate=False)


@pytest.mark.parametrize("group", [
    # x1^2 = x2 but [x1, x2] = x3: x1 fails to commute with its own square
    _unchecked(3, [0b010, 0, 0], {(0, 1): 0b100}),
    # x2^2 = x3 and [x1, x2] = 1, but [x1, x3] = x4
    _unchecked(4, [0, 0b0100, 0, 0], {(0, 2): 0b1000}),
], ids=["x1_vs_x1^2", "x1_vs_x2^2"])
def test_inconsistent_input_refused_by_tails(group):
    assert group.consistency_failures()
    with pytest.raises(PcError, match="x-part mismatch"):
        tails_rows(group)
    with pytest.raises(PcError, match="x-part mismatch"):
        cover_presentation(group)
