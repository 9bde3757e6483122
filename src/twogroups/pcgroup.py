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
uses the generic collector.

Groups are immutable after construction; every operation is a pure function
of its inputs (caches are internal memo tables only).
"""

from __future__ import annotations

import math
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from operator import xor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .linalg import Gf2Span, gf2_kernel, iter_bits, smith_normal_form, transpose_masks

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
        self._fast = self._detect_fast_path()
        if self._fast:
            self._tabulate()
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
        res = lower | tail
        self._mult_gen_cache[key] = res
        return res

    def _conj_gen(self, j: int, t: int) -> int:
        # x_t^-1 x_j x_t = x_j [x_j, x_t], j > t
        key = (j, t)
        hit = self._conj_gen_cache.get(key)
        if hit is not None:
            return hit
        w = self.comms[t][j]
        res = (1 << j) | self.inv(w) if w else (1 << j)
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

    # -- public group operations ----------------------------------------------

    def mult(self, a: int, b: int) -> int:
        if self._fast:
            return a ^ b ^ self._form(b, a)
        return self._mult(a, b)

    def square(self, a: int) -> int:
        if self._fast:
            return self._form(a, a)
        return self._mult(a, a)

    def inv(self, a: int) -> int:
        if self._fast:
            return a ^ self._form(a, a)
        hit = self._inv_cache.get(a)
        if hit is not None:
            return hit
        low = a & -a
        j = low.bit_length() - 1
        h = a ^ low
        res = self._mult_gen(self.inv(h), j)
        res = self._mult(res, self.inv(self.powers[j]))
        self._inv_cache[a] = res
        return res

    def conj(self, g: int, h: int) -> int:
        """h^-1 g h."""
        if self._fast:
            return g ^ self.comm(g, h)
        return self.mult(self.mult(self.inv(h), g), h)

    def comm(self, a: int, b: int) -> int:
        """[a, b] = a^-1 b^-1 a b."""
        if self._fast:
            return self._form(a, b) ^ self._form(b, a)
        return self.mult(self.mult(self.inv(self.mult(b, a)), a), b)

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
        """Normal form of a word of (1-based generator index, exponent) pairs."""
        res = 0
        for gen, exp in word:
            if not 1 <= gen <= self.n:
                raise PcError(f"generator index {gen} out of range 1..{self.n}")
            res = self.mult(res, self.power(1 << (gen - 1), exp))
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
        gens = self.generators
        mult = self.mult
        for k in range(self.n - 1, -1, -1):
            gk = gens[k]
            # x_k x_k x_k
            if mult(mult(gk, gk), gk) != mult(gk, mult(gk, gk)):
                bad.append((k + 1, k + 1, k + 1))
                if stop_early:
                    return bad
            for j in range(k):
                gj = gens[j]
                if mult(mult(gk, gk), gj) != mult(gk, mult(gk, gj)):
                    bad.append((k + 1, k + 1, j + 1))
                    if stop_early:
                        return bad
                if mult(mult(gk, gj), gj) != mult(gk, mult(gj, gj)):
                    bad.append((k + 1, j + 1, j + 1))
                    if stop_early:
                        return bad
                for i in range(j):
                    gi = gens[i]
                    if mult(mult(gk, gj), gi) != mult(gk, mult(gj, gi)):
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
    pivots: Dict[int, int] = {}  # lowest set bit -> echelon vector
    for w in group.powers + tuple(c for row in group.comms for c in row):
        while w:
            low = w & -w
            if low not in pivots:
                pivots[low] = w
                break
            w ^= pivots[low]
    return [1 << i for i in range(group.n) if 1 << i not in pivots]


# ---------------------------------------------------------------------------
# Generic finite-group layer: subgroups, conjugacy, homomorphisms.  These
# take any group with the operations of PcGroup (identity, elements,
# generators, mult, inv, square, conj, comm, lexkey) on int elements, and
# its presentation (n, powers, comms) for `frattini_generators`.
# ---------------------------------------------------------------------------


class Subgroup:
    """A materialized subgroup, its elements as ints of the group."""

    def __init__(self, group, gens: Sequence[int], elements: frozenset):
        self.group = group
        self.gens = tuple(gens)
        self.elements = elements
        self.order = len(elements)
        self._is_central: Optional[bool] = None

    @property
    def is_central(self) -> bool:
        """Every kept generator commutes with a generating set of G."""
        if self._is_central is None:
            g = self.group
            gens = frattini_generators(g)
            self._is_central = all(
                g.comm(h, x) == g.identity for h in self.gens for x in gens
            )
        return self._is_central

    def __contains__(self, g: int) -> bool:
        return g in self.elements

    def __len__(self) -> int:
        return self.order

    def sorted_elements(self) -> List[int]:
        return sorted(self.elements, key=self.group.lexkey)

    def __repr__(self) -> str:
        gens = ", ".join(self.group.element_str(g) for g in self.gens) or "1"
        return f"Subgroup(<{gens}> in {self.group.name}, order={self.order})"


def subgroup(group, gens: Iterable[int], normal_closure: bool = False) -> Subgroup:
    """Smallest (normal) subgroup containing gens, element set materialized.

    Candidates are taken in order and one already inside is skipped.  A new
    generator g adds the coset H*g and closes it under right multiplication
    by the kept generators: every element of <H, g> outside H is h*g*w.
    For the normal closure the conjugates of each kept generator by the
    group's generators are queued as further candidates, so the result is
    normalized by every generator (the normal closure of Holt, Eick and
    O'Brien, Handbook of CGT).  `gens` of the result are the kept
    generators, irredundant and in input order."""
    mult = group.mult
    elems = {group.identity}
    kept: List[int] = []
    queue = deque(gens)
    while queue:
        g = queue.popleft()
        if g in elems:
            continue
        kept.append(g)
        frontier = [mult(h, g) for h in elems]
        elems.update(frontier)
        while frontier:
            nxt = []
            for x in frontier:
                for k in kept:
                    y = mult(x, k)
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        if normal_closure:
            queue.extend(group.conj(g, x) for x in group.generators)
    return Subgroup(group, kept, frozenset(elems))


def trivial_subgroup(group) -> Subgroup:
    return Subgroup(group, (), frozenset({group.identity}))


@dataclass
class ConjugacyClass:
    rep: int
    elements: Tuple[int, ...]
    centralizer_order: int


def conjugacy_classes(group) -> List[ConjugacyClass]:
    """Partition of the group into conjugacy classes with centralizer orders,
    read off the one class walk (`_class_walk`)."""
    check_element_walk(group, "conjugacy_classes")
    classes = []
    for _g, members, _gens in _class_walk(group, centralizers=False):
        elements = tuple(sorted(members, key=group.lexkey))
        classes.append(ConjugacyClass(elements[0], elements, group.order // len(elements)))
    classes.sort(key=lambda c: group.lexkey(c.rep))
    return classes


def class_centralizers(group) -> Iterator[Tuple[int, List[int]]]:
    """One (g, gens) per conjugacy class, in element order of the first
    member g, with subgroup(group, gens) = C_G(g) and no identity or repeat
    in gens; read off the one class walk (`_class_walk`).  The walk visits
    every element, so the element-walk bound is checked at the call."""
    check_element_walk(group, "class_centralizers")
    return ((g, gens) for g, _members, gens in _class_walk(group, centralizers=True))


def _class_walk(group, centralizers: bool) -> Iterator[tuple]:
    """The one pass over the conjugacy classes, in element order of each
    class's first member g: yields (g, the members of its class, generators
    of C_G(g) if `centralizers` else None).

    Fast path: h -> [g, h] = F(g, h) ^ F(h, g) is GF(2)-linear in the bits
    of h, with image [g, G] spanned by the [g, x_i], and both depend only on
    the coset of g modulo the center (`center_span`), so they are built once
    per coset.  The class of g is g ^ [g, G].  C_G(g) is exactly the kernel
    K of h -> [g, h], and `gf2_kernel` gives a GF(2) basis of it that also
    generates it as a group: let S be the bits that occur in relation
    values.  Each x_j, j in S, carries no relation of its own, so it is
    central, column j of the map is zero and the basis holds the unit vector
    e_j.  For h in K written as the XOR b_1 ^ ... ^ b_k of basis vectors,
    the product p = b_1 ... b_k differs from h by an XOR z of F values, all
    of whose bits lie in S; F(z, .) = 0, so p z = p ^ z = h, and z is a
    product of the e_j in the basis.

    Generic path: one `conjugacy_orbit` per class, under the d(G) elements
    of `frattini_generators`.  For the centralizer it records the walk's
    steps (y, x, y^x), and the distinct non-identity Schreier generators
    t_y x t_{y^x}^-1 generate C_G(g) (Schreier's lemma needs only some
    generating set of G: Holt, Eick and O'Brien, Handbook of CGT, 4.1), so
    a class of size c gives at most c d(G) of them; the classes alone skip
    those products."""
    if isinstance(group, PcGroup) and group.is_fast:
        center = center_span(group)
        per_coset: Dict[int, Tuple[List[int], Optional[List[int]]]] = {}
        seen = bytearray(group.order)
        for g in range(group.order):
            if seen[g]:
                continue
            key = center.reduce(g)
            if key not in per_coset:
                image = [group.comm(g, x) for x in group.generators]
                gens = gf2_kernel(transpose_masks(image), group.n) if centralizers else None
                per_coset[key] = (_span_elements(Gf2Span(image).basis()), gens)
            span, gens = per_coset[key]
            members = [g ^ c for c in span]
            for m in members:
                seen[m] = 1
            yield g, members, gens
        return
    identity = group.identity
    seen = set()
    for g in group.elements():
        if g in seen:
            continue
        steps = [] if centralizers else None
        orbit = conjugacy_orbit(group, g, _steps=steps)
        seen.update(orbit)
        if steps is None:
            yield g, orbit, None
            continue
        t_inv = {y: group.inv(t) for y, t in orbit.items()}
        schreier: Dict[int, None] = {}
        for y, x, z in steps:
            s = group.mult(group.mult(orbit[y], x), t_inv[z])
            if s != identity:
                schreier[s] = None
        yield g, orbit, list(schreier)


def conjugacy_orbit(group, g: int, *, _steps: Optional[list] = None) -> Dict[int, int]:
    """The class of g as {y: t} with t^-1 g t = y: a breadth-first orbit walk
    under conjugation by the d(G) elements of `frattini_generators`, which
    generate G, so the orbit is the whole class; it records one transporter
    per element (Holt, Eick and O'Brien, Handbook of CGT, 4.1).  The class
    walk passes a list as `_steps` to receive every step (y, x, y^x)."""
    gens = frattini_generators(group)
    orbit = {g: group.identity}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for x in gens:
                y = group.conj(h, x)
                if _steps is not None:
                    _steps.append((h, x, y))
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
    rows = [sum(group.comm(1 << j, 1 << i) << (i * n) for i in range(n)) for j in range(n)]
    return Gf2Span(gf2_kernel(transpose_masks(rows), n))


def center_transversal(group) -> List[int]:
    """The least element of each coset of Z(G), ascending.

    [g, x] = [g', x] for every x in a generating set exactly when g'g^-1 is
    central, so the generic walk keys g by its commutators with
    `frattini_generators` and keeps the first element of each key.  Fast
    path: Z(G) is a GF(2) subspace of the bit vectors and g Z(G) = g ^ Z(G).
    Take an echelon basis of Z(G) keyed by highest set bit: each coset has
    one element that is 0 at every pivot bit, and it is the least, since
    adding a nonzero central element sets the highest pivot among its terms
    and no higher bit.  The transversal is every element on the other
    bits."""
    if not (isinstance(group, PcGroup) and group.is_fast):
        gens = frattini_generators(group)
        keys: Dict[Tuple[int, ...], int] = {}
        for g in group.elements():
            keys.setdefault(tuple(group.comm(g, x) for x in gens), g)
        return list(keys.values())
    lead: Dict[int, int] = {}
    for z in center_span(group).basis():
        while z:
            top = z.bit_length() - 1
            if top not in lead:
                lead[top] = z
                break
            z ^= lead[top]
    return _span_elements([1 << i for i in range(group.n) if i not in lead])


def _span_elements(basis: List[int]) -> List[int]:
    out = [0]
    for b in basis:
        out += [x ^ b for x in out]
    return out


def conjugate_to_inverse_witness(group, g: int) -> Optional[int]:
    """Element h with h^-1 g h = g^-1, or None if g is not conjugate to g^-1."""
    if isinstance(group, PcGroup) and group.is_fast:
        return _inverse_conjugator_fast(group, g)
    return conjugacy_orbit(group, g).get(group.inv(g))


def _inverse_conjugator_fast(group: PcGroup, g: int) -> Optional[int]:
    """Fast path: g^-1 = g * g^-2 and the conjugates of g are g * [g, G], so
    solve for g^-2 = g^2 (central of order <= 2 here) in the GF(2) span of
    the [g, x_i] and multiply out the generators of the combination."""
    span = Gf2Span(group.comm(g, x) for x in group.generators)
    combo = span.solve(group.square(g))
    if combo is None:
        return None
    h = 0
    for i in iter_bits(combo):
        h = group.mult(h, group.generators[i])
    return h


@dataclass
class StandardSubgroups:
    center: Subgroup
    derived: Subgroup
    center_cap_derived: Subgroup


def standard_subgroups(group) -> StandardSubgroups:
    """Center, derived subgroup, and their intersection.  On the fast path
    the center is the span of the kernel basis of `center_span`; otherwise
    it is every element that commutes with `frattini_generators`."""
    if isinstance(group, PcGroup) and group.is_fast:
        center_elems = frozenset(_span_elements(center_span(group).basis()))
    else:
        gens = frattini_generators(group)
        center_elems = frozenset(
            g for g in group.elements()
            if all(group.comm(g, x) == group.identity for x in gens)
        )
    center = Subgroup(group, sorted(center_elems, key=group.lexkey), center_elems)
    derived = derived_subgroup(group)
    both = center_elems & derived.elements
    cap = Subgroup(group, sorted(both, key=group.lexkey), both)
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
        elems = frozenset(
            g for g in self.source.elements() if self.apply(g) == self.target.identity
        )
        return Subgroup(self.source, sorted(elems, key=self.source.lexkey), elems)


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
    least of the two, which `central_lift` recovers."""
    powers, comms, images = _central_quotient_data(group, t)
    quotient = PcGroup(
        f"{group.name}/<{group.element_str(t)}>", group.n - 1, powers, comms
    )
    return GroupHom(group, quotient, images)


def is_central_quotient(hom, group: PcGroup, t: int) -> bool:
    """True when hom is the projection that central_quotient(group, t)
    builds: the same generator images onto the same presentation, so
    `central_lift(t, .)` inverts it."""
    if not (isinstance(hom, GroupHom) and hom.source is group):
        return False
    powers, comms, images = _central_quotient_data(group, t)
    target = hom.target
    return (
        isinstance(target, PcGroup)
        and hom.images == tuple(images)
        and target.powers == tuple(powers)
        and target.comms == tuple(map(tuple, comms))
    )


def _central_quotient_data(group: PcGroup, t: int):
    """Power words, commutator table and generator images of
    central_quotient(group, t); PcError unless t is central of order two."""
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
    return powers, comms, [image(1 << i) for i in range(group.n)]


def central_lift(t: int, h: int) -> int:
    """The lexicographically least preimage of an element h of
    central_quotient(group, t): h with a 0 inserted at the lowest set bit of
    t.  The other preimage is that times t."""
    j = (t & -t).bit_length() - 1
    return h & ((1 << j) - 1) | h >> j << (j + 1)


# -- abelianization ----------------------------------------------------------


def least_in_coset(group, sub_elems, g: int) -> int:
    """Lexicographically least element of the coset g * H, H given by its
    elements."""
    return min((group.mult(g, c) for c in sub_elems), key=group.lexkey)


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

    def coordinates(self, g: int) -> Tuple[int, ...]:
        acc = 0
        for i in iter_bits(g):
            acc += self._packed[i]
        # every d_j is a power of two
        return tuple(acc >> s & (d - 1) for s, d in zip(self._shifts, self.invariants))

    def omega_bits(self, g: int) -> Optional[int]:
        """The class of g in S/[G,G], S = {g : g^2 in [G,G]}, as a GF(2)
        vector over the v_j = (factor generator j)^(d_j/2): bit j is
        c_j/(d_j/2) for the coordinates c_j of g.  None when g is not in S."""
        coords = self.coordinates(g)
        if any(2 * c % d for c, d in zip(coords, self.invariants)):
            return None
        return sum(1 << j for j, c in enumerate(coords) if c)

    def s_elements(self) -> List[int]:
        """S = {g : g^2 in [G,G]}, ascending, with no squaring: g^2 has the
        coordinates 2 c_j, so g is in S exactly when every c_j = 0 mod
        d_j/2, i.e. when the low log2(d_j) - 1 bits of every field of the
        packed sum are 0 (sums are not reduced mod d_j, but each d_j is a
        power of two).  g = hi << h | lo with h = ceil(n/2), and the packed
        sum of g is that of hi plus that of lo, each read from a table of at
        most 2^h subset sums of the packed rows."""
        mask = sum(d // 2 - 1 << s for d, s in zip(self.invariants, self._shifts))
        h = (self.group.n + 1) // 2
        halves = []
        for rows in (self._packed[:h], self._packed[h:]):
            sums = [0]
            for row in rows:
                sums += [x + row for x in sums]
            halves.append(sums)
        lo_sums, hi_sums = halves
        out: List[int] = []
        for hi, hs in enumerate(hi_sums):
            base = hi << h
            out += [base | lo for lo, ls in enumerate(lo_sums) if not hs + ls & mask]
        return out

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
        factor_gens.append(least_in_coset(group, derived.elements, g))
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
    if not bottom.elements <= top.elements:
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


# -- tails collector ---------------------------------------------------------


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
