"""Finite 2-groups presented by power-commutator presentations.

Every group here has a generating sequence x_1 < x_2 < ... < x_n in which
x_i^2 and [x_i, x_j] (i < j, GAP convention [a,b] = a^-1 b^-1 a b) are words
in strictly later generators.  Normal forms are therefore bit vectors: the
element x_1^{e_1} ... x_n^{e_n} is stored as the int with bit i-1 = e_i.

When every relation value is central of order <= 2 (class <= 2), products
take the XOR fast path: with r(j, j) = x_j^2 and r(j, i) = [x_j, x_i] for
i > j, let F(b, a) = sum of r(j, i) over j in b, i in a, i >= j, over GF(2).
Then a b = a ^ b ^ F(b, a), a^2 = F(a, a), a^-1 = a ^ F(a, a) and
[a, b] = F(a, b) ^ F(b, a).  F is bilinear, so it is tabulated once by
chunks of at most CHUNK_BITS bits (`PcGroup._tabulate`); every other group
uses the generic collector, which also collects in the tails extension of
G behind the Schur cover (`tails_rows`): its free central tails ride in the
same int, above the n bits of the normal form, as packed signed integers.

A generic group's trailing generators x_{s+1}, ..., x_n that commute with
every generator span a central abelian subgroup K (the tail of a Schur
cover, say).  With a = a_t a_k, a_t the bits below s and a_k the bits of
K, a b = (a_t b_t) a_k b_k, a^-1 = a_t^-1 a_k^-1 and h^-1 g h =
(h_t^-1 g_t h_t) g_k: one lookup T[a_t, b_t] or C[g_t, h_t] times the K
parts, which multiply by XOR when K is elementary and by a short collection
on K's bits otherwise.  When 0 < s <= CHUNK_BITS, T and C are flat tables of
2^(2s) words, each entry filled on first use (`PcGroup._tabulate_top`).

Groups are immutable after construction; every operation is a pure function
of its inputs (caches are internal memo tables only).
"""

from __future__ import annotations

import math
import struct
from array import array
from collections import deque
from dataclasses import dataclass, field
from functools import cached_property, reduce
from itertools import accumulate
from operator import or_, xor
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .linalg import (Gf2Span, gf2_kernel, gf2_rref, iter_bits, least_images, linear_map,
                     smith_normal_form, span_elements, transpose_masks)

Word = Sequence[Tuple[int, int]]  # (1-based generator index, exponent)

# Largest |G| for the scans that visit every element (conjugacy classes,
# H^1(Wh') and so lambda_4, fingerprint); see README "Scale bounds".
ELEMENT_WALK_BOUND = 1 << 20

# Widest chunk of the fast path's tables: a block has 2^(2w) entries.
CHUNK_BITS = 8


class PcError(ValueError):
    """Malformed or inconsistent power-commutator data."""


class ScaleError(ValueError):
    """Input exceeds the documented desk-scale bound for this operation."""


def check_element_walk(group, what: str) -> None:
    """Raise ScaleError before `what` walks all |G| > ELEMENT_WALK_BOUND elements."""
    if group.order > ELEMENT_WALK_BOUND:
        raise ScaleError(
            f"{what} bound is |G| <= 2^{ELEMENT_WALK_BOUND.bit_length() - 1}, "
            f"got |G| = 2^{group.order.bit_length() - 1}"
        )


# byte b -> b with its 8 bits reversed, a bytes.translate table
_REVERSED_BYTES = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def _overlaps(k: int) -> Iterator[Tuple[int, int, int]]:
    """The standard overlaps x_k x_j x_i, k >= j >= i, of one k (0-based)."""
    yield k, k, k
    for j in range(k):
        yield k, k, j
        yield k, j, j
        for i in range(j):
            yield k, j, i


def _lexkey(bits: int, n: int) -> int:
    """Order normal forms by exponent tuple (e_1, ..., e_n) lexicographically:
    the n-bit reversal of bits, whole bytes reversed through a table."""
    nbytes = (n + 7) >> 3
    swapped = bits.to_bytes(nbytes, "little").translate(_REVERSED_BYTES)
    return int.from_bytes(swapped, "big") >> (8 * nbytes - n)


class PcGroup:
    """A finite 2-group given by a consistent pc presentation."""

    def __init__(
        self,
        name: str,
        n: int,
        powers: Sequence[int],
        comms: Sequence[Sequence[int]],
        validate: bool = True,
    ) -> None:
        if n < 0:
            raise PcError("generator count must be nonnegative")
        self.name = name
        self.n = n
        self.order = 1 << n
        self.powers = tuple(int(p) for p in powers)
        self.comms = tuple(tuple(int(c) for c in row) for row in comms)
        if len(self.powers) != n or len(self.comms) != n:
            raise PcError("relation tables must have one entry per generator")
        for i in range(n):
            if self.powers[i] >> n or self.powers[i] & ((1 << (i + 1)) - 1):
                raise PcError(
                    f"power word of x{i + 1} must use only generators > {i + 1}"
                )
            if len(self.comms[i]) != n:
                raise PcError("commutator table must be square")
            for j in range(n):
                c = self.comms[i][j]
                if j <= i:
                    if c:
                        raise PcError("commutator table must be strictly upper")
                    continue
                if c >> n or c & ((1 << (j + 1)) - 1):
                    raise PcError(
                        f"[x{i + 1},x{j + 1}] must use only generators > {j + 1}"
                    )
        self._mask_above = tuple(~((1 << (t + 1)) - 1) & ((1 << n) - 1) for t in range(n))
        self._inv_cache: Dict[int, int] = {0: 0}
        self._conj_gen_cache: Dict[Tuple[int, int], int] = {}
        self._mult_gen_cache: Dict[Tuple[int, int], int] = {}
        self._gen_powers: Dict[Tuple[int, int], int] = {}  # (gen, exp) -> x_gen^exp
        self._fast = self._detect_fast_path()
        self._top: Optional[array] = None
        self._conj_top: Optional[array] = None
        self._comm_map: Optional[Callable[[int], int]] = None
        self._comm_rows: Optional[tuple] = None  # (relation bits, map to the rows of M_g)
        self._quotient: Optional[tuple] = None  # (G/K, K's generators) of `_quotient`
        if self._fast:
            self._tabulate()
        else:
            self._tabulate_top()
        if validate:
            bad = self.consistency_failures(stop_early=True)
            if bad:
                raise PcError(f"{name}: inconsistent presentation at {bad[0]}")

    # -- construction helpers ------------------------------------------------

    def _detect_fast_path(self) -> bool:
        """True when all relation values are central of order <= 2.

        In that case [G,G] and the generator squares live in an elementary
        abelian central subgroup whose coordinates multiply by XOR, so
        products, squares, inverses and commutators are closed bit formulas.
        """
        support = 0
        for p in self.powers:
            support |= p
        for row in self.comms:
            for c in row:
                support |= c
        for j in iter_bits(support):
            if self.powers[j]:
                return False
            for i in range(self.n):
                if i < j and self.comms[i][j]:
                    return False
                if i > j and self.comms[j][i]:
                    return False
        return True

    @property
    def is_fast(self) -> bool:
        return self._fast

    def _tabulate(self) -> None:
        """Tables of the fast path's bilinear form F(b, a) (module docstring).

        With h one more than the highest generator that is the subject of a
        relation, only bits [0, h) enter F.  They are split into c chunks of
        width w <= CHUNK_BITS, and block (p, q), p <= q, tabulates F on
        chunk p of b and chunk q of a, indexed by b_p << w | a_q: F is the
        XOR of the c(c+1)/2 lookups.  Entries are 64-bit words."""
        n = self.n
        h = 0
        for i in range(n):
            if self.powers[i] or any(self.comms[i]) or any(row[i] for row in self.comms):
                h = i + 1
        if h and n > 64:
            raise ScaleError(f"{self.name}: the class-2 tables hold at most 64 generators")
        c = -(-h // CHUNK_BITS)
        w = -(-h // c) if c else 0
        self._chunk_width = w
        self._chunk_mask = (1 << w) - 1
        self._blocks = tuple(
            (self._form_table(p * w, q * w, w, h), p * w, q * w)
            for p in range(c)
            for q in range(p, c)
        )

    def _form_table(self, b_shift: int, a_shift: int, w: int, h: int) -> array:
        """F(b_p << b_shift, a_q << a_shift) at b_p << w | a_q.  Row b_p is
        the XOR of row b_p minus its top bit and the row of that bit's
        generator, which doubles over the bits of a_q the same way."""
        size = 1 << w
        table = array("Q", bytes(8 * size))
        for jb in range(w):
            j = b_shift + jb
            gen = [0]
            for ib in range(w):
                i = a_shift + ib
                r = 0
                if j <= i < h:
                    r = self.powers[j] if i == j else self.comms[j][i]
                gen += [x ^ r for x in gen]
            table.extend(map(xor, table, gen * (1 << jb)))
        return table

    def _form(self, b: int, a: int) -> int:
        """F(b, a) = sum over j in b, i in a, i >= j of r(j, i)."""
        w, m = self._chunk_width, self._chunk_mask
        acc = 0
        for table, b_shift, a_shift in self._blocks:
            acc ^= table[(b >> b_shift & m) << w | a >> a_shift & m]
        return acc

    def _tabulate_top(self) -> None:
        """An empty product table over the central tail K =
        <x_{s+1}, ..., x_n> of `central_tail`; `_top_xor` tells that its
        generators also have power 0 (not so for x9 in Cover_R3_3_s303,
        s = 6).  If 0 < s <= CHUNK_BITS, `_top` gets 2^(2s) entries of -1,
        and entry a_t << s | b_t is replaced by the collector's a_t b_t on first use
        (`mult`): filling whole rows is slower, since the class walks
        touch many rows but few entries in each.  `conj` allocates its
        table `_conj_top` alike.  Entries are 32-bit words below 32
        generators and 64-bit words up to 63 (both tables: at most 1 MB at
        s = 8); at s = 0 or on more generators the collector is kept."""
        n, s = self.n, central_tail(self)
        # set even without a table, so that every generic group has one attribute
        # layout: left unset on C8, the covers' walks ran about 10 % slower
        self._top_bits, self._top_mask = s, (1 << s) - 1
        self._top_xor = not any(self.powers[s:])
        if 0 < s <= CHUNK_BITS and n < 64:
            self._top = array("i" if n < 32 else "q", [-1]) * (1 << 2 * s)

    def _tail_mult(self, r: int, k: int) -> int:
        """r k for k in a non-elementary tail K, collected on K's bits: as
        k r_k, since K is abelian and r_k is often trivial."""
        rk = r & ~self._top_mask
        return r ^ rk | self._mult(k, rk) if rk else r | k

    # -- generic collector ---------------------------------------------------

    def _mult_gen(self, u: int, t: int) -> int:
        key = (u, t)
        hit = self._mult_gen_cache.get(key)
        if hit is not None:
            return hit
        upper = u & self._mask_above[t]
        lower = u ^ upper
        cc = self._conj_elem(upper, t)
        if lower >> t & 1:
            lower ^= 1 << t
            tail = self._mult(self.powers[t], cc)
        else:
            lower |= 1 << t
            tail = cc
        res = lower + tail
        self._mult_gen_cache[key] = res
        return res

    def _conj_gen(self, j: int, t: int) -> int:
        # x_t^-1 x_j x_t = x_j [x_j, x_t], j > t
        key = (j, t)
        hit = self._conj_gen_cache.get(key)
        if hit is not None:
            return hit
        w = self.comms[t][j]
        res = (1 << j) + self.inv(w) if w else (1 << j)
        self._conj_gen_cache[key] = res
        return res

    def _conj_elem(self, c: int, t: int) -> int:
        res = 0
        for j in iter_bits(c):
            res = self._mult(res, self._conj_gen(j, t))
        return res

    def _mult(self, a: int, b: int) -> int:
        for j in iter_bits(b):
            a = self._mult_gen(a, j)
        return a

    def _inv(self, a: int) -> int:
        hit = self._inv_cache.get(a)
        if hit is not None:
            return hit
        low = a & -a
        j = low.bit_length() - 1
        h = a ^ low
        res = self._mult_gen(self._inv(h), j)
        res = self._mult(res, self._inv(self.powers[j]))
        self._inv_cache[a] = res
        return res

    # -- public group operations ----------------------------------------------

    def mult(self, a: int, b: int) -> int:
        if self._fast:
            return a ^ b ^ self._form(b, a)
        top = self._top
        if top is None:
            return self._mult(a, b)
        m = self._top_mask
        at, bt = a & m, b & m
        key = at << self._top_bits | bt
        r = top[key]
        if r < 0:
            r = top[key] = self._mult(at, bt)
        if self._top_xor:
            return r ^ ((a ^ b) & ~m)
        return self._tail_mult(r, self._mult(a & ~m, b & ~m))

    def square(self, a: int) -> int:
        if self._fast:
            return self._form(a, a)
        return self.mult(a, a)

    def inv(self, a: int) -> int:
        if self._fast:
            return a ^ self._form(a, a)
        if self._top is not None:
            k = a & ~self._top_mask
            r = self._inv(a ^ k)
            return r ^ k if self._top_xor else self._tail_mult(r, self._inv(k))
        return self._inv(a)

    def conj(self, g: int, h: int) -> int:
        """h^-1 g h."""
        if self._fast:
            return g ^ self.comm(g, h)
        top, table = self._top, self._conj_top
        if top is None:
            return self.mult(self.mult(self.inv(h), g), h)
        if table is None:
            table = self._conj_top = array(top.typecode, [-1]) * len(top)
        m = self._top_mask
        gt, ht = g & m, h & m
        key = gt << self._top_bits | ht
        c = table[key]
        if c < 0:
            c = table[key] = self._mult(self._mult(self._inv(ht), gt), ht)
        return c ^ (g & ~m) if self._top_xor else self._tail_mult(c, g & ~m)

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        if self._fast:
            return self._form(a, b) ^ self._form(b, a)
        return self.mult(self.mult(self.inv(self.mult(b, a)), a), b)

    def comm_images(self, g: int) -> List[int]:
        """[g, x_i] for every pc generator x_i.  Fast path: g -> [g, x_i] is
        GF(2)-linear (F is bilinear), so the n values, packed n bits apart,
        are one `linear_map` of g over the packed [x_b, x_i]."""
        if not self._fast:
            return [self.comm(g, x) for x in self.generators]
        n, comm_map = self.n, self._comm_map
        if comm_map is None:
            rows = [sum(self.comm(1 << b, 1 << i) << i * n for i in range(n)) for b in range(n)]
            comm_map = self._comm_map = linear_map(rows)
        packed = comm_map(g)
        return [packed >> i * n & self.order - 1 for i in range(n)]

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    @property
    def generators(self) -> List[int]:
        return [1 << i for i in range(self.n)]

    def lexkey(self, g: int) -> int:
        return _lexkey(g, self.n)

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv(g), -k
        res = 0
        while k:
            if k & 1:
                res = self.mult(res, g)
            g = self.square(g)
            k >>= 1
        return res

    def element_order(self, g: int) -> int:
        order = 1
        while g:
            g = self.square(g)
            order <<= 1
        return order

    # -- words ----------------------------------------------------------------

    def collect(self, word: Word) -> int:
        """Normal form of a word of (1-based generator index, exponent) pairs;
        each x_gen^exp is computed once per group."""
        res, memo = 0, self._gen_powers
        for gen, exp in word:
            p = memo.get((gen, exp))
            if p is None:
                if not 1 <= gen <= self.n:
                    raise PcError(f"generator index {gen} out of range 1..{self.n}")
                p = memo[gen, exp] = self.power(1 << (gen - 1), exp)
            res = self.mult(res, p)
        return res

    def element_from_indices(self, indices: Iterable[int]) -> int:
        """Product of the listed generators (1-based), e.g. [5, 6] -> x5*x6."""
        return self.collect([(i, 1) for i in indices])

    def element_str(self, g: int) -> str:
        if g == 0:
            return "1"
        return "*".join(f"x{i + 1}" for i in iter_bits(g))

    # -- consistency -----------------------------------------------------------

    def consistency_failures(self, stop_early: bool = False) -> List[Tuple[int, ...]]:
        """Associativity checks on the standard overlap set.

        Returns the list of failing triples; empty means the presentation is
        consistent, so normal forms are unique and |G| = 2^n.
        """
        bad: List[Tuple[int, ...]] = []
        gens, mult = self.generators, self.mult
        for k in range(self.n - 1, -1, -1):
            for _k, j, i in _overlaps(k):
                a, b, c = gens[k], gens[j], gens[i]
                if mult(mult(a, b), c) != mult(a, mult(b, c)):
                    bad.append((k + 1, j + 1, i + 1))
                    if stop_early:
                        return bad
        return bad

    def __repr__(self) -> str:
        return f"PcGroup({self.name!r}, order=2^{self.n})"


@dataclass(frozen=True)
class Element:
    """Normal-form exponent vector over the pc generating sequence."""

    group: "PcGroup"
    bits: int

    @property
    def exps(self) -> Tuple[int, ...]:
        return tuple(self.bits >> i & 1 for i in range(self.group.n))

    def __mul__(self, other: "Element") -> "Element":
        return Element(self.group, self.group.mult(self.bits, other.bits))

    def inverse(self) -> "Element":
        return Element(self.group, self.group.inv(self.bits))

    def __str__(self) -> str:
        return self.group.element_str(self.bits)


def central_tail(group) -> int:
    """The least s at which x_{s+1}, ..., x_n commute with every generator,
    so that they span a central subgroup K.  When that leaves s = 0 (every
    generator central, as in C8), s is one past the last powered generator
    instead, and K is elementary."""
    s = group.n
    while s and not any(group.comms[s - 1]) and not any(row[s - 1] for row in group.comms):
        s -= 1
    return s or max((i + 1 for i, p in enumerate(group.powers) if p), default=0)


def frattini_generators(group) -> List[int]:
    """The pc generators x_i whose bit i is not a pivot of R, the GF(2) span
    of the bit vectors of every relation value, echeloned by lowest set bit:
    d(G) elements that generate G, read off the presentation alone.

    Collection rewrites by relations only, and each rewrite changes the
    exponent vector mod 2 by the bits of a relation value, so "bits modulo
    R" is a homomorphism onto (Z/2)^(n - rank R) whose kernel holds every
    square and commutator: it is G -> G/Phi(G), and d(G) = n - rank R =
    len(abelian_invariants(G)).  A pivot's vector expresses x_p modulo
    Phi(G) through later generators, so the non-pivot x_i span G/Phi(G)
    and generate G by the Burnside basis theorem (Holt, Eick and O'Brien,
    Handbook of CGT, ch. 8)."""
    pivots = {s & -s for s in frattini_subgroup(group).seq}
    return [1 << i for i in range(group.n) if 1 << i not in pivots]


def frattini_subgroup(group) -> Subgroup:
    """Phi(G), the kernel of `frattini_generators`' map: the elements whose
    exponent bits lie in R.  The echelon vectors of R lie in it and have
    distinct leading bits, so their 2^(rank R) ordered products are all of
    it: they are its induced pc sequence."""
    pivots: Dict[int, int] = {}  # lowest set bit -> echelon vector of R
    for w in group.powers + tuple(c for row in group.comms for c in row):
        while w:
            low = w & -w
            if low not in pivots:
                pivots[low] = w
                break
            w ^= pivots[low]
    gens = list(pivots.values())
    return Subgroup(group, gens, gens)


# ---------------------------------------------------------------------------
# Generic finite-group layer: subgroups, conjugacy, homomorphisms.  These
# take any group with the operations of PcGroup (identity, elements,
# generators, mult, inv, square, conj, comm, lexkey) on int elements, its
# presentation (n, powers, comms) for `frattini_generators`, and `is_fast`,
# true only on a PcGroup whose class-<=2 paths (comm_images) may be taken.
# ---------------------------------------------------------------------------


class Subgroup:
    """A subgroup H as an induced pc sequence `seq`: one member per leading
    bit (lowest set bit, the first nonzero exponent), ascending.  Every
    generator has relative order 2, so every element of H is exactly one
    ordered product of distinct members and |H| = 2^len(seq) (Holt, Eick
    and O'Brien, Handbook of CGT, 8.3).  `gens` generate H too; `elements`
    is listed on first use."""

    def __init__(self, group, gens: Sequence[int], seq: Iterable[int]):
        self.group = group
        self.gens = tuple(gens)
        self.seq = tuple(sorted(seq, key=lambda s: s & -s))
        self.order = 1 << len(self.seq)

    def sift(self, g: int) -> int:
        """The lexicographically least element of gH: a member changes no bit
        below its leading bit and flips that one, so clearing each leading
        bit in ascending order is the greedy minimum.  It is the identity
        exactly when g is in H."""
        for s in self.seq:
            if g & s & -s:
                g = self.group.mult(g, s)
        return g

    def coordinates(self, g: int) -> int:
        """The mask of the members that `sift` multiplies g by, bit k for
        seq[k]; PcError unless g is in H.  On an elementary abelian H, g
        is the product of those members, so the map is GF(2)-linear."""
        mask = 0
        for k, s in enumerate(self.seq):
            if g & s & -s:
                g = self.group.mult(g, s)
                mask |= 1 << k
        if g:
            raise PcError(f"{self.group.element_str(g)} is left after sifting through {self!r}")
        return mask

    @cached_property
    def elements(self) -> frozenset:
        elems = [self.group.identity]
        for s in self.seq:
            elems += [self.group.mult(e, s) for e in elems]
        return frozenset(elems)

    @cached_property
    def is_central(self) -> bool:
        """Every member commutes with a generating set of G."""
        g = self.group
        gens = frattini_generators(g)
        return all(g.comm(h, x) == g.identity for h in self.seq for x in gens)

    def __contains__(self, g: int) -> bool:
        return not self.sift(g)

    def __len__(self) -> int:
        return self.order

    def sorted_elements(self) -> List[int]:
        return sorted(self.elements, key=self.group.lexkey)

    def __repr__(self) -> str:
        gens = ", ".join(self.group.element_str(g) for g in self.gens) or "1"
        return f"Subgroup(<{gens}> in {self.group.name}, order={self.order})"


def subgroup(group, gens: Iterable[int], normal_closure: bool = False) -> Subgroup:
    """Smallest (normal) subgroup containing gens, as an induced pc sequence.

    Candidates are taken in order and one already inside is skipped.  A new
    generator joins by its sifted residue, which has a leading bit no member
    has; then the squares and commutators of members are sifted in until
    each sifts to 1.  Then each square and commutator of members is an
    ordered product of members after them, so the ordered products of the
    members form a group (Holt, Eick and O'Brien, Handbook of CGT, 8.3).
    For the normal closure the conjugates of each kept generator by the
    group's generators are queued as further candidates, so the result is
    normalized by every generator.  `gens` of the result are the kept
    generators, irredundant and in input order."""
    sub = Subgroup(group, (), ())
    kept: List[int] = []
    queue = deque(gens)
    while queue:
        g = queue.popleft()
        pending = [sub.sift(g)]
        if not pending[0]:
            continue
        kept.append(g)
        while pending:
            r = sub.sift(pending.pop())
            if r:
                pending += [group.square(r)] + [group.comm(r, s) for s in sub.seq]
                sub = Subgroup(group, (), sub.seq + (r,))
        if normal_closure:
            queue.extend(group.conj(g, x) for x in group.generators)
    return Subgroup(group, kept, sub.seq)


def trivial_subgroup(group) -> Subgroup:
    return Subgroup(group, (), ())


@dataclass
class ConjugacyClass:
    """A class as a record: its `lexkey`-least member `rep`, its size,
    |C_G(rep)| and whether it holds rep^-1.  `elements` lists the members
    in `lexkey` order when first read: rep ^ [rep, G] on the fast path,
    else the `conjugacy_orbit` of rep."""

    rep: int
    size: int
    centralizer_order: int
    is_real: bool
    _group: object = field(default=None, repr=False, compare=False)

    @cached_property
    def elements(self) -> Tuple[int, ...]:
        group = self._group
        if not group.is_fast:
            return tuple(sorted(conjugacy_orbit(group, self.rep), key=group.lexkey))
        # rep is 0 at each pivot (lowest bit) of the reduced basis of [rep, G],
        # so the span in descending pivot order runs in `lexkey` order
        span = span_elements(gf2_rref(group.comm_images(self.rep))[::-1])
        return tuple(self.rep ^ c for c in span)


def conjugacy_classes(group) -> List[ConjugacyClass]:
    """The conjugacy classes as records, ordered by `lexkey` of their rep.

    Fast path: h -> [g, h] = F(g, h) ^ F(h, g) is GF(2)-linear, with image
    K = [g, G] inside Z(G) spanned by the [g, x_i], and K depends only on
    g Z(G).  For t in `center_transversal`, t ^ Z(G) splits into classes
    r ^ K whose least members r are `reduce`(t) ^ the span of the reduced
    complement of K in Z(G), reducing by K's echelon basis, pivot at the
    lowest bit.  r is real when r^-1 = r ^ r^2 is in r ^ K: r^2 reduces to
    0; r -> r^2 is linear on Z(G), so those residues are spanned with the
    reps.  Generic path: `_lifted_classes`."""
    check_element_walk(group, "conjugacy_classes")
    classes = []
    if group.is_fast:
        center = center_span(group).basis()
        per_k: Dict[Tuple[int, ...], tuple] = {}  # K's basis -> (its span, reps, r^2 residues)
        for t in center_transversal(group):
            k = tuple(gf2_rref(group.comm_images(t)))
            if k not in per_k:
                span, grown = Gf2Span(k), Gf2Span()
                comp = [z for z in map(span.reduce, center) if grown.add(z)]
                squares = [span.reduce(group.square(z)) for z in comp]
                per_k[k] = span, span_elements(comp), span_elements(squares)
            span, reps, squares = per_k[k]
            r = span.reduce(t)
            q, size = span.reduce(group.square(r)), 1 << len(k)
            classes += [ConjugacyClass(r ^ c, size, group.order // size, q == s, group)
                        for c, s in zip(reps, squares)]
    else:
        classes = [ConjugacyClass(rep, size, group.order // size, h is not None, group)
                   for rep, size, h, _c in _lifted_classes(group)]
    classes.sort(key=lambda c: group.lexkey(c.rep))
    return classes


def _quotient(group) -> Tuple[PcGroup, List[int]]:
    """(Q = G/K, K's generators), K the `central_tail` cut below its last
    powered generator, so central and elementary; Q keeps the s generators
    above K, relations masked to s bits.  Built once per group."""
    if group._quotient is None:
        n, s = group.n, central_tail(group)
        s = max([s] + [i + 1 for i in range(s, n) if group.powers[i]])
        m = (1 << s) - 1
        top = PcGroup(f"{group.name}/K", s, [p & m for p in group.powers[:s]],
                      [[c & m for c in row[:s]] for row in group.comms[:s]])
        group._quotient = top, [1 << i for i in range(s, n)]
    return group._quotient


def _lifted_classes(group, deep: bool = False) -> List[tuple]:
    """(rep, size, h, C) per class of a generic group, h^-1 rep h = rep^-1
    or h None, by `_central_step` at each class of Q = G/K (`_quotient`),
    from the fast walk or from here with `deep`.  Above the class of g lie
    the classes g k V of size |g^Q| |V|, with reps g | t, t on the bits of
    K off the pivots of V, and g's witness and centralizer."""
    top, tail = _quotient(group)
    above = ([(c.rep, c.size, *_element_lift(top, c.rep)) for c in conjugacy_classes(top)]
             if top.is_fast else _lifted_classes(top, deep=True))
    out = []
    for g, size, y, cents in above:
        free, y, cent = _central_step(group, g, y, cents, deep)
        out += [(g | t, size << (len(tail) - len(free)), y, cent) for t in span_elements(free)]
    return out


def _central_step(group, g: int, y: Optional[int], cents: List[int], deep: bool) -> tuple:
    """The central step (Felsch and Neubueser, EUROSAM '79; Mecky and
    Neubueser, Bull. Austral. Math. Soc. 40, 1989) from Q = G/K to G at g
    (tail 0), from y with g^y = g^-1 in Q or None and an induced sequence C
    of C_Q(g): c -> [g, c] = g^c ^ g maps P = C K onto V <= K; u = g^y g
    is in K and g^(y c) = [g, c] g^-1 u, so g is real iff u is in V, with
    witness y c.  Returns (K's generators off the pivots of V, the witness
    or None, and with `deep` C_G(g) = ker(P -> K) K as an induced
    sequence, else None, the sift stopping once V = K)."""
    tail = _quotient(group)[1]
    pivots: Dict[int, Tuple[int, int]] = {}
    kernel = _sift_kernel(group, group, pivots, ((c, group.conj(g, c) ^ g) for c in cents[::-1]
                                                 if deep or len(pivots) < len(tail)))
    free = [k for k in tail if k not in pivots]
    if y is not None:  # u sifts to 1 with preimage y c, or joins the pivots
        y = (_sift_kernel(group, group, pivots, [(y, group.mult(group.conj(g, y), g))])
             or [None])[0]
    return free, y, kernel[::-1] + tail if deep else None


def _element_lift(group, g: int, deep: bool = True) -> Tuple[Optional[int], Optional[List[int]]]:
    """(h with g^h = g^-1 or None, an induced sequence of C_G(g), None on a
    generic group without `deep`): the packed solve and the `gf2_kernel`
    basis of h -> [g, h] on the fast path, else `_central_step` at g's
    tail-0 image, which has g's witness and centralizer as K is central."""
    if group.is_fast:
        return (_inverse_conjugator_fast(group, g),
                gf2_rref(gf2_kernel(transpose_masks(group.comm_images(g)), group.n)))
    top = _quotient(group)[0]
    g &= top.order - 1
    return _central_step(group, g, *_element_lift(top, g), deep)[1:]


def _sift_kernel(source, target, pivots: Dict[int, Tuple[int, int]], pairs) -> List[int]:
    """The kernel-image sift of a homomorphism on a subgroup, fed (x, image)
    for x up its induced sequence from the last member: the image sifts
    through `pivots`, {leading bit: (image, preimage)}, as x takes on the
    preimages used and keeps its leading bit; at residue 1, x joins the
    kernel (returned from the last member), else the residue joins the
    pivots, since each step grows the subgroup and its image by index <= 2."""
    kernel: List[int] = []
    for x, y in pairs:
        for low in sorted(pivots):
            if y & low:
                z, w = pivots[low]
                y, x = target.mult(y, z), source.mult(x, w)
        if y:
            pivots[y & -y] = y, x
        else:
            kernel.append(x)
    return kernel


def wedge_pairs(group) -> Iterator[Tuple[int, List[int]]]:
    """(g, hs) whose commuting pairs (g, h), h in hs, have wedges that
    generate those of all commuting pairs: w(g, h) = [g~, h~] in a central
    extension (`ktheory.sk1`), or [g] ^ [h] in Lambda^2 G^ab.  The pairs are
    (t, generators of C_G(t)) for non-central t, some t Z(G) meeting each
    class, then (z, the pc generators) for z generating Z(G).

    w is additive in each argument on commuting pairs ([ab, h] =
    [a, h]^b [b, h], [a~, h~] central); for g = t z with z central,
    C_G(g) = C_G(t), w(g, h) = w(t, h) + w(z, h), and w(z, h) is additive in
    z on Z(G) and in h on all of G = C_G(z); and w(t^a, h^a) = w(t, h).

    Fast path: t != 1 in `center_transversal`, and the `gf2_kernel` basis
    of h -> [t, h], whose kernel is C_G(t).  It also generates C_G(t) as a
    group: let S be the bits that occur in relation values.  Each x_j, j in
    S, carries no relation of its own, so it is central, column j of the
    map is zero and the basis holds the unit vector e_j.  For h in the
    kernel written as the XOR b_1 ^ ... ^ b_k of basis vectors, the product
    p = b_1 ... b_k differs from h by an XOR z of F values, all of whose
    bits lie in S; F(z, .) = 0, so p z = p ^ z = h, and z is a product of
    the e_j in the basis.

    Generic path: t runs over the reps (tail 0) of the classes of Q = G/K
    (`_quotient`) not central in G, each with the `deep` centralizer of
    `_lifted_classes`, since K lies in Z(G); Z(G) is the classes of size
    1.  At most n pairs per class of Q and per generator of Z(G)."""
    check_element_walk(group, "wedge_pairs")
    if group.is_fast:
        for t in center_transversal(group)[1:]:
            yield t, gf2_kernel(transpose_masks(group.comm_images(t)), group.n)
        center = center_span(group).basis()
    else:
        s, center = _quotient(group)[0].n, []
        for rep, size, _h, cent in _lifted_classes(group, deep=True):
            if size == 1:
                center.append(rep)
            elif not rep >> s:
                yield rep, cent
        center = subgroup(group, sorted(center)).gens
    for z in center:
        yield z, group.generators


def conjugacy_orbit(group, g: int, *, _gens: Optional[List[int]] = None) -> Dict[int, int]:
    """The class of g as {y: t} with t^-1 g t = y: a breadth-first orbit walk
    under conjugation by the d(G) elements of `frattini_generators`, which
    generate G, so the orbit is the whole class; it records one transporter
    per element (Holt, Eick and O'Brien, Handbook of CGT, 4.1).  A walk
    over many classes passes the generators once as `_gens`."""
    gens = frattini_generators(group) if _gens is None else _gens
    orbit = {g: group.identity}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for x in gens:
                y = group.conj(h, x)
                if y not in orbit:
                    orbit[y] = group.mult(orbit[h], x)
                    nxt.append(y)
        frontier = nxt
    return orbit


def center_span(group: PcGroup) -> Gf2Span:
    """Fast path: g -> ([g, x_i])_i is GF(2)-linear in the bits of g with
    kernel Z(G), so `reduce` of this span keys the center coset of g.
    rows[j] packs the [x_j, x_i], n bits per i."""
    n = group.n
    rows = [sum(c << i * n for i, c in enumerate(group.comm_images(1 << j))) for j in range(n)]
    return Gf2Span(gf2_kernel(transpose_masks(rows), n))


def center_transversal(group) -> List[int]:
    """The least element of each coset of Z(G), ascending.

    [g, x] = [g', x] for every x in a generating set exactly when g'g^-1 is
    central, so the generic walk keys g by its commutators with
    `frattini_generators`, each read as g^-1 (x^-1 g x) through the
    conjugation table, and keeps the first element of each key.  Fast
    path: Z(G) is a GF(2) subspace of the bit vectors and g Z(G) = g ^ Z(G),
    whose least member is 0 at the pivots of `least_images`: the
    transversal is every element on the other bits."""
    if not group.is_fast:
        gens = frattini_generators(group)
        keys: Dict[Tuple[int, ...], int] = {}
        for g in group.elements():
            g_inv = group.inv(g)
            keys.setdefault(tuple([group.mult(g_inv, group.conj(g, x)) for x in gens]), g)
        return list(keys.values())
    least = least_images(center_span(group).basis(), group.n)
    return span_elements([1 << j for j, x in enumerate(least) if x == 1 << j])


def conjugate_to_inverse_witness(group, g: int) -> Optional[int]:
    """Element h with h^-1 g h = g^-1, or None if g is not conjugate to
    g^-1: the packed solve on the fast path, else `_element_lift`."""
    if group.is_fast:
        return _inverse_conjugator_fast(group, g)
    return _element_lift(group, g, deep=False)[0]


def _inverse_conjugator_fast(group: PcGroup, g: int) -> Optional[int]:
    """Fast path: g^-1 = g * g^-2 and the conjugates of g are g * [g, G], so
    solve M_g h = g^2 (central of order <= 2 here) over GF(2).  Row r of M_g
    holds bit p_r of each [g, x_i], packed n bits apart by a `linear_map` of
    g cached on the group, for the bits p_r of relation values: they hold
    every [g, x_i] and g^2, so g^2 outside [G,G] leaves the row 1 << n.  With
    g^2 as column n and pivots at the lowest column, the pivot columns are
    the first independent [g, x_i], as in `Gf2Span.solve`; h is the ascending
    product, here the XOR, of the x_i at pivots whose row holds column n."""
    n, cached = group.n, group._comm_rows
    if cached is None:
        bits = list(iter_bits(reduce(or_, group.powers + sum(group.comms, ()), 0)))
        rows = [sum((c >> p & 1) << r * n + i for r, p in enumerate(bits)
                    for i, c in enumerate(group.comm_images(1 << b))) for b in range(n)]
        cached = group._comm_rows = bits, linear_map(rows)
    bits, row_map = cached
    packed, square = row_map(g), group.square(g)
    reduced = gf2_rref([packed >> r * n & group.order - 1 | (square >> p & 1) << n
                        for r, p in enumerate(bits)])
    if reduced and reduced[-1] == 1 << n:
        return None
    return sum(row & -row for row in reduced if row >> n & 1)


@dataclass
class StandardSubgroups:
    center: Subgroup
    derived: Subgroup
    center_cap_derived: Subgroup


def standard_subgroups(group) -> StandardSubgroups:
    """Center, derived subgroup, and their intersection.  Z(G) is generated
    by the kernel basis of `center_span` on the fast path, else it is the
    reps of the classes of size 1, closed in ascending order."""
    center = subgroup(group, center_span(group).basis() if group.is_fast else
                      sorted(r for r, size, *_ in _lifted_classes(group) if size == 1))
    derived = derived_subgroup(group)
    cap = subgroup(group, [z for z in center.elements if z in derived])
    return StandardSubgroups(center, derived, cap)


class GroupHom:
    """Homomorphism determined by images of the pc generators.

    The image of a normal form is the ordered product of generator images,
    so `apply` is exact for any map that is a homomorphism; the defining
    relations are checked on construction, which raises otherwise.
    """

    def __init__(self, source: PcGroup, target, images: Sequence[int]):
        self.source = source
        self.target = target
        self.images = tuple(images)
        if len(self.images) != source.n:
            raise PcError("need one image per pc generator of the source")
        failure = self.relation_failure()
        if failure is not None:
            raise PcError(f"map does not respect relation {failure}")

    def apply(self, g: int) -> int:
        t = self.target
        res = t.identity
        for i in iter_bits(g):
            res = t.mult(res, self.images[i])
        return res

    def __call__(self, g: int) -> int:
        return self.apply(g)

    def relation_failure(self) -> Optional[str]:
        s, t = self.source, self.target
        for i in range(s.n):
            lhs = t.mult(self.apply(1 << i), self.apply(1 << i))
            rhs = self.apply(s.powers[i])
            if lhs != rhs:
                return f"x{i + 1}^2 = {s.element_str(s.powers[i])}"
            for j in range(i + 1, s.n):
                a, b = self.apply(1 << i), self.apply(1 << j)
                lhs = t.mult(t.mult(t.inv(t.mult(b, a)), a), b)
                rhs = self.apply(s.comms[i][j])
                if lhs != rhs:
                    return f"[x{i + 1},x{j + 1}] = {s.element_str(s.comms[i][j])}"
        return None

    def is_surjective(self) -> bool:
        img = subgroup(self.target, [self.apply(g) for g in self.source.generators])
        return img.order == self.target.order

    def kernel(self) -> Subgroup:
        """The kernel as an induced sequence, by `_sift_kernel` over the pc
        generators."""
        pairs = zip(self.source.generators[::-1], self.images[::-1])
        seq = _sift_kernel(self.source, self.target, {}, pairs)
        return Subgroup(self.source, seq, seq)


def homomorphism(source: PcGroup, target, images: Sequence[int]) -> GroupHom:
    """Verified homomorphism from generator images; raises PcError if invalid."""
    return GroupHom(source, target, images)


def central_quotient(group: PcGroup, t: int) -> GroupHom:
    """The projection of G onto G/<t>, t central of order two, whose target
    is a validated pc presentation on the n - 1 generators other than x_j,
    j the lowest set bit of t (the induced presentation of Holt, Eick and
    O'Brien, Handbook of CGT, ch. 8).

    t = x_j w with w in G_{j+1}, and x_j is central modulo G_{j+1}, so v and
    v t agree below bit j and differ in bit j.  The image of v is the one of
    the two with bit j clear, with bit j deleted: the lexicographically
    least of the two, which `central_lift` recovers.  PcError unless t is
    central of order two."""
    if not 0 < t < group.order or group.square(t) or any(
        group.comm(t, x) for x in group.generators
    ):
        raise PcError(f"<{group.element_str(t)}> is not central of order two")
    j = (t & -t).bit_length() - 1
    low = (1 << j) - 1

    def image(v: int) -> int:
        if v >> j & 1:
            v = group.mult(v, t)
        return v & low | v >> (j + 1) << j

    keep = [i for i in range(group.n) if i != j]
    powers = [image(group.powers[i]) for i in keep]
    comms = [[image(group.comms[a][b]) for b in keep] for a in keep]
    quotient = PcGroup(
        f"{group.name}/<{group.element_str(t)}>", group.n - 1, powers, comms
    )
    return GroupHom(group, quotient, [image(1 << i) for i in range(group.n)])


def central_lift(t: int, h: int) -> int:
    """The lexicographically least preimage of an element h of
    central_quotient(group, t): h with a 0 inserted at the lowest set bit of
    t.  The other preimage is that times t."""
    j = (t & -t).bit_length() - 1
    return h & ((1 << j) - 1) | h >> j << (j + 1)


# -- abelianization ----------------------------------------------------------


@dataclass
class Abelianization:
    """pi^ab = G/[G,G] as the direct sum of the Z/d_j with coordinates that
    are linear in the exponent bits: x_1^e_1 ... x_n^e_n maps to
    sum e_i gen_coords[i].  `abelianization` reads gen_coords off the Smith
    transform V (row i of V); the adapted decompositions of `ooze` are
    other bases of the same kind.

    Certificate (`certificate_failure`): the map kills every relation of
    the presentation, so it is a homomorphism on G; factor generator j maps
    to the j-th unit vector, so it is onto; and prod d_j * |[G,G]| = |G|
    with [G,G] closed independently, so it induces G/[G,G] = sum Z/d_j.
    """

    group: PcGroup
    derived: Subgroup
    invariants: Tuple[int, ...]              # the d_j, ascending in abelianization()
    factor_gens: Tuple[int, ...]             # least element of a coset mapping to e_j
    gen_coords: Tuple[Tuple[int, ...], ...]  # coordinates of x_1, ..., x_n

    def __post_init__(self) -> None:
        # row i packed into one int, coordinate j from bit _shifts[j] on, each
        # field wide enough that a sum of n rows never carries into the next
        widths = [(d * len(self.gen_coords)).bit_length() for d in self.invariants]
        self._shifts = [sum(widths[:j]) for j in range(len(widths))]
        self._packed = [
            sum(c % d << s for c, d, s in zip(row, self.invariants, self._shifts))
            for row in self.gen_coords
        ]
        # g is in S when the low log2(d_j) - 1 bits of every field are 0
        self._s_mask = sum(d // 2 - 1 << s for d, s in zip(self.invariants, self._shifts))
        # the packed sum of g, fields not reduced mod d_j, is one subset sum per byte
        self._byte_sums = [(shift, _subset_sums(self._packed[shift:shift + 8]))
                           for shift in range(0, len(self._packed), 8)]

    def coordinates(self, g: int) -> Tuple[int, ...]:
        acc = sum(table[g >> shift & 255] for shift, table in self._byte_sums)
        # every d_j is a power of two
        return tuple(acc >> s & (d - 1) for s, d in zip(self._shifts, self.invariants))

    def omega_bits(self, g: int) -> Optional[int]:
        """The class of g in S/[G,G], S = {g : g^2 in [G,G]}, as a GF(2)
        vector over the v_j = (factor generator j)^(d_j/2): bit j is
        c_j/(d_j/2) for the coordinates c_j of g, the top bit of field j.
        None when g is not in S."""
        acc = sum(table[g >> shift & 255] for shift, table in self._byte_sums)
        if acc & self._s_mask:
            return None
        return sum((acc >> s + d.bit_length() - 2 & 1) << j
                   for j, (s, d) in enumerate(zip(self._shifts, self.invariants)))

    def s_elements(self) -> Iterator[int]:
        """S = {g : g^2 in [G,G]}, ascending, with no squaring: g^2 has the
        coordinates 2 c_j, so g is in S exactly when every c_j = 0 mod
        d_j/2, i.e. when the low log2(d_j) - 1 bits of every field of the
        packed sum are 0 (sums are not reduced mod d_j, but each d_j is a
        power of two).  g = hi << h | lo with h = ceil(n/2), and the packed
        sum of g is that of hi plus that of lo, each read from a table of at
        most 2^h subset sums of the packed rows."""
        mask, h = self._s_mask, (self.group.n + 1) // 2
        lo_sums, hi_sums = _subset_sums(self._packed[:h]), _subset_sums(self._packed[h:])
        for hi, hs in enumerate(hi_sums):
            yield from [hi << h | lo for lo, ls in enumerate(lo_sums) if not hs + ls & mask]

    def certificate_failure(self) -> Optional[str]:
        group, d = self.group, self.invariants
        for i in range(group.n):
            double = tuple(2 * c % m for c, m in zip(self.gen_coords[i], d))
            if double != self.coordinates(group.powers[i]):
                return f"relation x{i + 1}^2 is not respected"
            if any(any(self.coordinates(w)) for w in group.comms[i]):
                return f"a commutator [x{i + 1}, x_j] does not map to 0"
        for j, g in enumerate(self.factor_gens):
            if self.coordinates(g) != tuple(int(i == j) for i in range(len(d))):
                return f"factor {j + 1} does not map to its unit vector"
        if math.prod(d) * self.derived.order != group.order:
            return "factor orders do not multiply to |G/[G,G]|"
        return None


def _subset_sums(rows: List[int]) -> List[int]:
    """The sum of rows[i] over the set bits i of x, at index x."""
    sums = [0]
    for row in rows:
        sums += [x + row for x in sums]
    return sums


def derived_subgroup(group) -> Subgroup:
    gens = group.generators
    comm_gens = [group.comm(a, b) for a in gens for b in gens if a != b]
    return subgroup(group, comm_gens, normal_closure=True)


def _abelianized_smith(group: PcGroup):
    """Smith normal form U A V = D of the abelianized relation matrix A:
    one row 2 e_i - w_i per power relation and one row -w_ij per nonzero
    commutator relation, over Z/2|G|.  G^ab is a 2-group of exponent
    dividing |G|, so no entry of D is 0 and the d > 1 on the diagonal,
    ascending, are the invariants of G^ab."""
    n = group.n
    rows = []
    for i in range(n):
        row = [0] * n
        row[i] = 2
        for j in iter_bits(group.powers[i]):
            row[j] -= 1
        rows.append(row)
    for i in range(n):
        for j in range(i + 1, n):
            w = group.comms[i][j]
            if w:
                row = [0] * n
                for t in iter_bits(w):
                    row[t] -= 1
                rows.append(row)
    return smith_normal_form(rows, 2 * group.order)


def abelian_invariants(group: PcGroup) -> Tuple[int, ...]:
    """Invariants of G/[G,G], ascending, from the presentation alone."""
    diag, _v, _vinv = _abelianized_smith(group)
    return tuple(d for d in diag if d > 1)


def abelianization(group: PcGroup) -> Abelianization:
    """Cyclic invariants of G/[G,G] and coordinates on it, from the Smith
    normal form U A V = D of the abelianized relation matrix A: [x_i] has
    the coordinates V[i] and the factor generator j is x^(V^-1[j])."""
    n = group.n
    diag, v, vinv = _abelianized_smith(group)
    keep = [j for j, d in enumerate(diag) if d > 1]
    invariants = tuple(diag[j] for j in keep)
    derived = derived_subgroup(group)
    factor_gens = []
    for j in keep:
        g = group.identity
        for i, e in enumerate(vinv[j]):
            g = group.mult(g, group.power(1 << i, e))
        factor_gens.append(derived.sift(g))
    ab = Abelianization(
        group=group,
        derived=derived,
        invariants=invariants,
        factor_gens=tuple(factor_gens),
        gen_coords=tuple(tuple(v[i][j] % diag[j] for j in keep) for i in range(n)),
    )
    failure = ab.certificate_failure()
    if failure is not None:
        raise PcError(f"abelianization: {failure}")
    return ab


def subquotient_invariants(group, top: Subgroup, bottom: Subgroup) -> Tuple[int, ...]:
    """Invariants of the abelian 2-group top/bottom inside a common group.

    If n_k = #{g in top : g^(2^k) in bottom} then the number of cyclic
    factors of order >= 2^k is log2(n_k) - log2(n_{k-1}) (every coset of
    bottom adds |bottom| to each n_k); the multiset of invariants follows.
    Exact when top/bottom is abelian.
    """
    if not all(s in top for s in bottom.seq):
        raise PcError("bottom is not contained in top")
    levels = [0] * (top.order.bit_length() + 1)  # least k with g^(2^k) in bottom
    for g in top.elements:
        k = 0
        while g not in bottom.elements:
            g, k = group.square(g), k + 1
        levels[k] += 1
    logs = [n_k.bit_length() - 1 for n_k in accumulate(levels)]
    at_least = [b - a for a, b in zip(logs, logs[1:])] + [0]  # of order >= 2^(k+1)
    invariants: List[int] = []
    for k in range(len(at_least) - 1):
        invariants += [2 << k] * (at_least[k] - at_least[k + 1])
    return tuple(invariants)


# -- tails extension ---------------------------------------------------------

# Bits of one packed tail.  Tails are only added and subtracted, so packing
# is exact, and a tail c_r decodes exactly while |c_r| < 2^63: it counts
# signed rewritings by its relation, and no collection nears 2^63 steps.
TAIL_BITS = 64


class _TailedGroup(PcGroup):
    """G extended by one free central tail per relation (Holt, Eick and
    O'Brien, Handbook of CGT, ch. 9): x_r^2 = w_r gains tail r < n, and the
    [x_i, x_j] = w_ij, i < j ascending, the tails from n on.  An element is
    its normal form plus T << n, T = sum c_r << (TAIL_BITS r), so it may be
    negative.  Each override splits the central tails off, runs the plain
    step on the bits and adds them back (`_inv` negates them), so the memo
    tables stay keyed by bits.  It keeps no top tables: its tails sit above
    bit n, outside any central tail of G."""

    def __init__(self, group: PcGroup) -> None:
        super().__init__(group.name, group.n, group.powers, group.comms, validate=False)
        self._fast, self._top, self._low, n = False, None, group.order - 1, group.n
        units = [1 << (n + TAIL_BITS * r) for r in range(n * (n + 1) // 2)]
        self.powers = tuple(p + u for p, u in zip(group.powers, units))
        pair_units = iter(units[n:])
        self.comms = tuple(
            tuple(c + next(pair_units) if j > i else c for j, c in enumerate(row))
            for i, row in enumerate(group.comms)
        )

    def _mult_gen(self, u: int, t: int) -> int:
        lo = u & self._low
        return PcGroup._mult_gen(self, lo, t) + (u - lo)

    def _mult(self, a: int, b: int) -> int:
        lo = b & self._low
        return PcGroup._mult(self, a, lo) + (b - lo)

    def _inv(self, a: int) -> int:
        lo = a & self._low
        return PcGroup._inv(self, lo) - (a - lo)


def tails_rows(group: PcGroup) -> List[List[int]]:
    """Integral relations among the tails of G, one entry per relation: the
    nonzero tail differences of the overlaps x_k x_j x_i, k >= j >= i, of
    `consistency_failures`, collected both ways in the tails extension, for
    ascending k."""
    ext, n = _TailedGroup(group), group.n
    m, mult, sign = n * (n + 1) // 2, ext.mult, 1 << (TAIL_BITS - 1)
    bias = sum(sign << (TAIL_BITS * r) for r in range(m))  # each field + 2^63
    rows = []
    for k in range(n):
        for a, b, c in _overlaps(k):
            a, b, c = 1 << a, 1 << b, 1 << c
            diff = mult(mult(a, b), c) - mult(a, mult(b, c))
            if diff & ext._low:
                raise PcError("x-part mismatch in tails collection (inconsistent input)")
            if diff:
                try:
                    packed = (bias + (diff >> n)).to_bytes(m * TAIL_BITS // 8, "little")
                except OverflowError:
                    raise PcError("a tail overflows its packed field") from None
                rows.append([f - sign for f in struct.unpack(f"<{m}Q", packed)])
    return rows
