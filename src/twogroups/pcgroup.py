"""Finite 2-groups presented by power-commutator presentations.

Every group here has a generating sequence x_1 < x_2 < ... < x_n in which
x_i^2 and [x_i, x_j] (i < j, GAP convention [a,b] = a^-1 b^-1 a b) are words
in strictly later generators.  Normal forms are therefore bit vectors: the
element x_1^{e_1} ... x_n^{e_n} is stored as the int with bit i-1 = e_i.

Groups are immutable after construction; every operation is a pure function
of its inputs (caches are internal memo tables only).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .linalg import Gf2Span, abelian_invariants_from_relations, iter_bits

Word = Sequence[Tuple[int, int]]  # (1-based generator index, exponent)


class PcError(ValueError):
    """Malformed or inconsistent power-commutator data."""


def _lexkey(bits: int, n: int) -> int:
    """Order normal forms by exponent tuple (e_1, ..., e_n) lexicographically."""
    key = 0
    for i in range(n):
        key = (key << 1) | (bits >> i & 1)
    return key


class _Powers:
    """power and element_order from mult, square, inv and identity."""

    def power(self, g: int, k: int) -> int:
        if k < 0:
            g, k = self.inv(g), -k
        res = self.identity
        while k:
            if k & 1:
                res = self.mult(res, g)
            g = self.square(g)
            k >>= 1
        return res

    def element_order(self, g: int) -> int:
        order = 1
        while g != self.identity:
            g = self.square(g)
            order <<= 1
        return order


class PcGroup(_Powers):
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
        self._sq_cache: Dict[int, int] = {0: 0}
        self._fast = self._detect_fast_path()
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

    def _mult_fast(self, a: int, b: int) -> int:
        acc = a ^ b
        for j in iter_bits(b):
            hi = a & self._mask_above[j]
            for i in iter_bits(hi):
                acc ^= self.comms[j][i]
        for i in iter_bits(a & b):
            acc ^= self.powers[i]
        return acc

    # -- public group operations ----------------------------------------------

    def mult(self, a: int, b: int) -> int:
        if self._fast:
            return self._mult_fast(a, b)
        return self._mult(a, b)

    def square(self, a: int) -> int:
        if self._fast:
            hit = self._sq_cache.get(a)
            if hit is not None:
                return hit
            low = a & -a
            j = low.bit_length() - 1
            rest = a ^ low
            acc = self.square(rest) ^ self.powers[j]
            for i in iter_bits(rest):
                acc ^= self.comms[j][i]
            self._sq_cache[a] = acc
            return acc
        return self._mult(a, a)

    def inv(self, a: int) -> int:
        if self._fast:
            return a ^ self.square(a)
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
            acc = 0
            for i in iter_bits(a):
                for j in iter_bits(b):
                    if i == j:
                        continue
                    acc ^= self.comms[i][j] if i < j else self.comms[j][i]
            return acc
        return self.mult(self.mult(self.inv(self.mult(b, a)), a), b)

    @property
    def identity(self) -> int:
        return 0

    def elements(self) -> range:
        return range(self.order)

    @property
    def generators(self) -> List[int]:
        return [1 << i for i in range(self.n)]

    def root_image(self, g: int) -> int:
        return g

    def lexkey(self, g: int) -> int:
        return _lexkey(g, self.n)

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


# ---------------------------------------------------------------------------
# Generic finite-group layer: subgroups, quotients, homomorphisms.
# Quotient elements are canonical coset representatives of the base group,
# so "an element" is always an int in the base group's bit encoding.
# ---------------------------------------------------------------------------


class Subgroup:
    """A materialized subgroup of a PcGroup or QuotientGroup."""

    def __init__(self, group, gens: Sequence[int], elements: frozenset):
        self.group = group
        self.gens = tuple(gens)
        self.elements = elements
        self.order = len(elements)
        self._is_normal: Optional[bool] = None
        self._is_central: Optional[bool] = None

    @property
    def is_normal(self) -> bool:
        if self._is_normal is None:
            g = self.group
            self._is_normal = all(
                g.conj(h, x) in self.elements
                for h in self.gens
                for x in g.generators
            )
        return self._is_normal

    @property
    def is_central(self) -> bool:
        if self._is_central is None:
            g = self.group
            self._is_central = all(
                g.comm(h, x) == g.identity
                for h in self.gens
                for x in g.generators
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
    """Partition of the group into conjugacy classes with centralizer orders.

    For class-<=2 pc groups the class of g is the coset g*[g,G] with [g,G]
    the GF(2) span of the generator commutators; otherwise a generic orbit
    walk is used.
    """
    if isinstance(group, PcGroup) and group.is_fast:
        seen = bytearray(group.order)
        classes = []
        for g in range(group.order):
            if seen[g]:
                continue
            span = Gf2Span()
            for x in group.generators:
                span.add(group.comm(g, x))
            members = [g]
            for combo in _span_elements(span.basis()):
                if combo:
                    members.append(g ^ combo)
            for m in members:
                seen[m] = 1
            size = len(members)
            classes.append(
                ConjugacyClass(
                    rep=min(members, key=group.lexkey),
                    elements=tuple(sorted(members, key=group.lexkey)),
                    centralizer_order=group.order // size,
                )
            )
        classes.sort(key=lambda c: group.lexkey(c.rep))
        return classes
    seen = set()
    classes = []
    for g in group.elements():
        if g in seen:
            continue
        orbit = conjugacy_orbit(group, g)
        seen.update(orbit)
        classes.append(
            ConjugacyClass(
                rep=min(orbit, key=group.lexkey),
                elements=tuple(sorted(orbit, key=group.lexkey)),
                centralizer_order=group.order // len(orbit),
            )
        )
    classes.sort(key=lambda c: group.lexkey(c.rep))
    return classes


def conjugacy_orbit(group, g: int) -> Dict[int, int]:
    """The class of g as {y: t} with t^-1 g t = y: a breadth-first orbit walk
    under conjugation by the generators that records one transporter per
    element (Holt, Eick and O'Brien, Handbook of CGT, 4.1)."""
    orbit = {g: group.identity}
    frontier = [g]
    while frontier:
        nxt = []
        for h in frontier:
            for x in group.generators:
                y = group.conj(h, x)
                if y not in orbit:
                    orbit[y] = group.mult(orbit[h], x)
                    nxt.append(y)
        frontier = nxt
    return orbit


def class_centralizers(group) -> Iterator[Tuple[int, List[int]]]:
    """One (g, gens) per conjugacy class, in element order of the first
    member g: gens are the distinct non-identity Schreier generators
    t_y x t_{y^x}^-1 (y in the orbit, x a pc generator) of the orbit walk,
    so subgroup(group, gens) is the centralizer C_G(g)."""
    identity = group.identity
    pc_gens = group.generators
    seen = set()
    for g in group.elements():
        if g in seen:
            continue
        orbit = conjugacy_orbit(group, g)
        seen.update(orbit)
        t_inv = {y: group.inv(t) for y, t in orbit.items()}
        gens: Dict[int, None] = {}
        for y, t in orbit.items():
            for x in pc_gens:
                s = group.mult(group.mult(t, x), t_inv[group.conj(y, x)])
                if s != identity:
                    gens[s] = None
        yield g, list(gens)


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
    span = Gf2Span()
    for x in group.generators:
        span.add(group.comm(g, x))
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
    """Center, derived subgroup, and their intersection."""
    gens = group.generators
    center_elems = frozenset(
        g for g in group.elements() if all(group.comm(g, x) == group.identity for x in gens)
    )
    center = Subgroup(group, sorted(center_elems, key=group.lexkey), center_elems)
    derived = derived_subgroup(group)
    both = center_elems & derived.elements
    cap = Subgroup(group, sorted(both, key=group.lexkey), both)
    return StandardSubgroups(center, derived, cap)


class GroupHom:
    """Homomorphism determined by images of the root pc generators.

    The image of a normal form is the ordered product of generator images,
    so `apply` is exact for any map that is a homomorphism; the defining
    relations are checked on construction, which raises otherwise.
    """

    def __init__(self, source, target, images: Sequence[int]):
        self.source = source
        self.target = target
        root = source
        while isinstance(root, QuotientGroup):
            root = root.base
        self.root = root
        self.images = tuple(images)
        if len(self.images) != root.n:
            raise PcError("need one image per pc generator of the source root")
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
        root, t = self.root, self.target
        for i in range(root.n):
            lhs = t.mult(self.apply(1 << i), self.apply(1 << i))
            rhs = self.apply(root.powers[i])
            if lhs != rhs:
                return f"x{i + 1}^2 = {root.element_str(root.powers[i])}"
            for j in range(i + 1, root.n):
                a, b = self.apply(1 << i), self.apply(1 << j)
                lhs = t.mult(t.mult(t.inv(t.mult(b, a)), a), b)
                rhs = self.apply(root.comms[i][j])
                if lhs != rhs:
                    return f"[x{i + 1},x{j + 1}] = {root.element_str(root.comms[i][j])}"
        if isinstance(self.source, QuotientGroup):
            for g in self.source.modulus.gens:
                if self.apply(g) != t.identity:
                    return "kernel of the defining quotient is not respected"
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


class QuotientGroup(_Powers):
    """G/N with canonical (lexicographically least) coset representatives."""

    def __init__(self, base, modulus: Subgroup):
        if modulus.group is not base:
            raise PcError("subgroup does not live in the base group")
        if not modulus.is_normal:
            raise PcError("can only quotient by a normal subgroup")
        self.base = base
        self.modulus = modulus
        canon: Dict[int, int] = {}
        reps: List[int] = []
        nset = modulus.elements
        for g in sorted(base.elements(), key=base.lexkey):
            if g in canon:
                continue
            reps.append(g)
            for x in nset:
                canon[base.mult(g, x)] = g
        self._canon = canon
        self._reps = reps
        self.order = len(reps)
        self.name = f"{base.name}/{'<' + ','.join(base.element_str(g) for g in modulus.gens) + '>' if modulus.gens else '1'}"
        if base.order != modulus.order * self.order:
            raise PcError("coset count does not match |G|/|N|")
        root = base
        while isinstance(root, QuotientGroup):
            root = root.base
        images = [canon[base.root_image(1 << i)] for i in range(root.n)]
        self.projection = GroupHom(base, self, images)
        if not self.projection.is_surjective():
            raise PcError("projection failed surjectivity check")

    def root_image(self, g: int) -> int:
        return self._canon[self.base.root_image(g)]

    # group protocol ---------------------------------------------------------

    @property
    def identity(self) -> int:
        return self.base.identity

    def elements(self) -> List[int]:
        return self._reps

    @property
    def generators(self) -> List[int]:
        seen = []
        for g in self.base.generators:
            img = self._canon[g]
            if img not in seen:
                seen.append(img)
        return seen

    def project(self, g: int) -> int:
        return self._canon[g]

    def mult(self, a: int, b: int) -> int:
        return self._canon[self.base.mult(a, b)]

    def inv(self, a: int) -> int:
        return self._canon[self.base.inv(a)]

    def square(self, a: int) -> int:
        return self._canon[self.base.square(a)]

    def conj(self, g: int, h: int) -> int:
        return self._canon[self.base.conj(g, h)]

    def comm(self, a: int, b: int) -> int:
        return self._canon[self.base.comm(a, b)]

    def lexkey(self, g: int) -> int:
        return self.base.lexkey(g)

    def element_str(self, g: int) -> str:
        return f"[{self.base.element_str(g)}]"

    def preimages(self, h: int) -> List[int]:
        return [self.base.mult(h, x) for x in self.modulus.elements]

    def __repr__(self) -> str:
        return f"QuotientGroup({self.name}, order={self.order})"


def quotient(group, normal: Subgroup) -> QuotientGroup:
    return QuotientGroup(group, normal)


# -- abelianization ----------------------------------------------------------


@dataclass
class Abelianization:
    """pi^ab with an explicit internal direct-sum decomposition."""

    group: object
    quotient: QuotientGroup
    projection: GroupHom
    invariants: Tuple[int, ...]       # cyclic orders, ascending
    factor_gens: Tuple[int, ...]      # elements of the quotient generating each factor

    def coordinates(self) -> Dict[int, Tuple[int, ...]]:
        return cyclic_coordinates(self.quotient, self.factor_gens, self.invariants)


def cyclic_coordinates(
    q, factor_gens: Sequence[int], orders: Sequence[int]
) -> Dict[int, Tuple[int, ...]]:
    """Discrete-log table of an abelian group q along cyclic factors:
    element -> exponents; fewer than |q| keys means the sum is not direct."""
    table = {q.identity: tuple(0 for _ in orders)}
    for j, (g, m) in enumerate(zip(factor_gens, orders)):
        current = dict(table)
        p = q.identity
        for e in range(1, m):
            p = q.mult(p, g)
            for elem, coords in current.items():
                c = list(coords)
                c[j] = e
                table[q.mult(elem, p)] = tuple(c)
    return table


def derived_subgroup(group) -> Subgroup:
    gens = group.generators
    comm_gens = [group.comm(a, b) for a in gens for b in gens if a != b]
    return subgroup(group, comm_gens, normal_closure=True)


def abelianization(group: PcGroup) -> Abelianization:
    """Cyclic invariants and verified projection onto G/[G,G].

    The invariants come from the Smith normal form of the abelianized
    relation matrix of the pc presentation; the SNF transform also yields
    generators of an internal direct-sum decomposition, which is
    re-verified on the materialized quotient.
    """
    der = derived_subgroup(group)
    q = QuotientGroup(group, der)
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
    orders, gen_vecs = abelian_invariants_from_relations(rows, n)
    factor_gens = []
    for vec in gen_vecs:
        g = q.identity
        for i, e in enumerate(vec):
            g = q.mult(g, q.power(q.project(1 << i), e))
        factor_gens.append(g)
    pairs = sorted(zip(orders, factor_gens), key=lambda t: t[0])
    orders = [p[0] for p in pairs]
    factor_gens = [p[1] for p in pairs]
    # re-verify the decomposition: factor orders and direct spanning
    total = 1
    for m, g in zip(orders, factor_gens):
        if q.element_order(g) != m:
            raise PcError("abelianization factor has wrong order")
        total *= m
    if total != q.order:
        raise PcError("abelianization factors do not span")
    ab = Abelianization(
        group=group,
        quotient=q,
        projection=q.projection,
        invariants=tuple(orders),
        factor_gens=tuple(factor_gens),
    )
    if len(ab.coordinates()) != q.order:
        raise PcError("abelianization decomposition is not direct")
    return ab


def abelian_invariants_by_order_profile(
    elements: Iterable[int], element_order: Callable[[int], int]
) -> Tuple[int, ...]:
    """Invariants of a finite abelian 2-group from its element-order counts.

    If n_k = #{g : g^(2^k) = 1} then the number of cyclic factors of order
    >= 2^k equals log2(n_k) - log2(n_{k-1}); the multiset of invariants
    follows.  Exact for abelian groups only.
    """
    orders = [element_order(g) for g in elements]
    nbits = max(len(orders).bit_length(), 2)
    counts = [sum(1 for o in orders if o <= (1 << k)) for k in range(nbits)]
    # dims[k-1] = number of cyclic factors of order >= 2^k
    dims = [
        (counts[k].bit_length() - 1) - (counts[k - 1].bit_length() - 1)
        for k in range(1, nbits)
    ]
    invariants: List[int] = []
    for k, d_k in enumerate(dims, start=1):
        next_d = dims[k] if k < len(dims) else 0
        invariants.extend([1 << k] * (d_k - next_d))
    return tuple(sorted(invariants))


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
