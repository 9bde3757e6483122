import itertools
import random
from collections import deque

import pytest

from twogroups.catalog import shipped_catalog
from twogroups.homology import schur_cover
from twogroups.linalg import Gf2Span, gf2_rank, gf2_rref, iter_bits, span_elements
from twogroups.pcgroup import (
    PcGroup,
    abelianization,
    center_span,
    center_transversal,
    check_element_walk,
    conjugacy_orbit,
    frattini_generators,
    subgroup,
)

SHIPPED_SMALL = ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8",
                 "SG128_1376", "SG128_1377"]
# (k, m, seed): R(k,m) of order 2^(k+m) <= 2^7
RKM = [(3, 2, 1), (3, 2, 2), (4, 2, 1), (4, 2, 2), (4, 3, 1), (4, 3, 2), (3, 4, 3)]
# order 2^10, for the per-coset fast paths: [G,G]-cosets of 2^4 and 2^5
RKM_LARGER = [(6, 4, 1), (5, 5, 2)]
# the shipped groups on the class-2 fast path
SHIPPED_FAST = ["C2", "C4", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8", "SG128_1376",
                "SG128_1377", "SG256_8129", "SG256_8177", "SG256_9039", "G16384"]
# the shipped groups with a central block, which `relabel` needs
CENTRAL_BLOCK = ["SG128_1376", "SG128_1377", "SG256_8129", "SG256_8177", "SG256_9039",
                 "G16384"]
COVERED = ["D8", "C8", "C2xC4"]
# covers of covers, all on the generic collector (orders 16, 64, 32)
TWICE_COVERED = ["C2xC2", "C2xC4", "D8"]


@pytest.fixture(scope="session")
def cat():
    return shipped_catalog()


def rkm(k, m, seed):
    """Random class-2 group: the k top generators have seeded random squares
    and commutators in the m central generators of order two."""
    rng = random.Random(seed)
    n = k + m
    powers = [rng.getrandbits(m) << k if i < k else 0 for i in range(n)]
    comms = [[0] * n for _ in range(n)]
    for i in range(k):
        for j in range(i + 1, k):
            comms[i][j] = rng.getrandbits(m) << k
    return PcGroup(f"R{k}_{m}_s{seed}", n, powers, comms, validate=True)


class GenericView:
    """A PcGroup behind an object that is not a PcGroup: every operation is
    the group's own, but it declares `is_fast` false, so conjugacy_classes,
    h1_wh_prime, wedge_pairs and the witnesses take their generic branches
    on it: the central step from the quotient by the central tail, whose
    own classes come from the fast walk, and `ConjugacyClass.elements`
    lists orbits."""

    is_fast = False

    def __init__(self, group):
        self._group = group

    def __getattr__(self, name):
        return getattr(self._group, name)


def schreier_walk(group, g, gens):
    """(orbit, Schreier generators) of the class of g: the breadth-first
    walk of `conjugacy_orbit` under gens, {y: a_y} with a_y^-1 g a_y = y,
    recording each step (y, x, y^x); the distinct non-identity
    a_y x a_{y^x}^-1 generate C_G(g) (Schreier's lemma needs only some
    generating set of G: Holt, Eick and O'Brien, Handbook of CGT, 4.1).
    The walk that `wedge_pairs` took before it read the centralizers off
    the class lift."""
    orbit, frontier, steps = {g: group.identity}, [g], []
    while frontier:
        nxt = []
        for y in frontier:
            for x in gens:
                z = group.conj(y, x)
                steps.append((y, x, z))
                if z not in orbit:
                    orbit[z] = group.mult(orbit[y], x)
                    nxt.append(z)
        frontier = nxt
    a_inv = {y: group.inv(a) for y, a in orbit.items()}
    schreier = dict.fromkeys(group.mult(group.mult(orbit[y], x), a_inv[z]) for y, x, z in steps)
    schreier.pop(group.identity, None)
    return orbit, list(schreier)


def class_centralizers(group):
    """One (g, gens) per conjugacy class, in element order of its first
    member g, with <gens> = C_G(g) and no identity or repeat in gens: the
    Schreier generators of the `schreier_walk` of g under the Frattini
    generators.  The oracle of `wedge_pairs`, the same orbit walk on every
    group, fast or not."""
    check_element_walk(group, "class_centralizers")
    frattini = frattini_generators(group)
    seen = set()
    for g in group.elements():
        if g in seen:
            continue
        orbit, schreier = schreier_walk(group, g, frattini)
        seen.update(orbit)
        yield g, schreier


def commutator_scan(group):
    """Each commutator [g, h] of G (the set, not its span) mapped to its
    first pair (g, h) in one scan over `center_transversal` in both
    arguments, g outer: [gz, h] = [g, hz] = [g, h] for central z.  The
    |G/Z(G)|^2 pair scan that `ktheory.commutator_values` replaced with one
    pass, kept as its oracle and that of the pair `thm41_check` prints."""
    elems = center_transversal(group)
    first = {}
    for g in elems:
        for h in elems:
            first.setdefault(group.comm(g, h), (g, h))
    return first


def elementary_coordinates(mult, zero, candidates):
    """Greedy GF(2) coordinates on an elementary abelian section, listed as
    a table: zero lists the elements with coordinate 0 (the subgroup
    divided out); each candidate not yet reached becomes the next basis
    vector and doubles the table.  Returns (basis, table), table mapping
    every element reached to its mask.  The oracle of
    `Subgroup.coordinates` and of the `omega_bits` span behind C."""
    table = dict.fromkeys(zero, 0)
    basis = []
    for g in candidates:
        if g in table:
            continue
        bit = 1 << len(basis)
        for elem, mask in list(table.items()):
            table[mult(elem, g)] = mask | bit
        basis.append(g)
    return basis, table


def listing_walk(group):
    """(rep, members in `lexkey` order, centralizer order) per class, in
    `lexkey` order of rep: the class walk that listed every class, kept as
    the oracle of the class records.  One pass over the elements starts a
    class at each element not yet listed.  Fast path: the class of g is
    r ^ [g, G], r the residue of g modulo the reduced basis of [g, G], one
    span per coset of the center; generic path: the sorted orbit."""
    classes = []
    if group.is_fast:
        center = center_span(group)
        spans = {}
        listed = bytearray(group.order)
        for g in range(group.order):
            if listed[g]:
                continue
            key = center.reduce(g)
            if key not in spans:
                spans[key] = span_elements(gf2_rref(group.comm_images(g))[::-1])
            span = spans[key]
            r = g  # span[2^i] is basis row i
            for i in range(len(span).bit_length() - 1):
                b = span[1 << i]
                r ^= b if r & b & -b else 0
            members = tuple(r ^ c for c in span)
            for m in members:
                listed[m] = 1
            classes.append((r, members, group.order // len(members)))
    else:
        gens = frattini_generators(group)
        seen = set()
        for g in group.elements():
            if g in seen:
                continue
            orbit = conjugacy_orbit(group, g, _gens=gens)
            seen.update(orbit)
            members = tuple(sorted(orbit, key=group.lexkey))
            classes.append((members[0], members, group.order // len(members)))
    classes.sort(key=lambda c: group.lexkey(c[0]))
    return classes


def kernel_walk(hom):
    """The kernel of a `GroupHom`, closed from every source element that
    maps to 1: the walk that `GroupHom.kernel`'s sift replaced, kept as its
    oracle."""
    one = hom.target.identity
    return subgroup(hom.source, [g for g in hom.source.elements() if hom(g) == one])


def span_inverse_conjugator(group, g):
    """h with h^-1 g h = g^-1 on the fast path, or None: g^2 solved in the
    `Gf2Span` of the [g, x_i], the combination multiplied out in ascending
    order.  The oracle of the packed-row `_inverse_conjugator_fast`."""
    combo = Gf2Span(group.comm_images(g)).solve(group.square(g))
    if combo is None:
        return None
    h = group.identity
    for i in iter_bits(combo):
        h = group.mult(h, 1 << i)
    return h


def element_walk(group, ab):
    """(g, h, new) for each g in S - [G,G], ascending, that some h
    conjugates to g^-1, with new when g is the first member of its
    [G,G]-coset (fast path) or class (generic path): the walk over every
    element of S that `h1_wh_prime` made before it walked cosets.  Fast
    path: one `span_inverse_conjugator` per coset, keyed by `sift`;
    generic path: one orbit per class from its first member r, and
    h = a_y^-1 a_{y^-1} when a_y^-1 r a_y = y."""
    der = ab.derived
    gens = frattini_generators(group)
    solved, orbit_of = {}, {}
    for g in ab.s_elements():
        if g in der.elements:
            continue
        if group.is_fast:
            key = der.sift(g)
            new = key not in solved
            if new:
                solved[key] = span_inverse_conjugator(group, g)
            h = solved[key]
        else:
            new = g not in orbit_of
            if new:
                orbit = conjugacy_orbit(group, g, _gens=gens)
                orbit_of.update(dict.fromkeys(orbit, orbit))
            orbit = orbit_of[g]
            to_inv = orbit.get(group.inv(g))
            h = None if to_inv is None else group.mult(group.inv(orbit[g]), to_inv)
        if h is not None:
            yield g, h, new


def element_walk_h1(group):
    """(rank, S, C, witnesses) from `element_walk`: C's generators over
    [G,G] are the first members, in order, whose class in S/[G,G] is new.
    The oracle of `h1_wh_prime`."""
    ab = abelianization(group)
    witnesses, span, basis = [], Gf2Span(), []
    for g, h, new in element_walk(group, ab):
        witnesses.append((g, h))
        if new and len(span) < len(ab.invariants) and span.add(ab.omega_bits(g)):
            basis.append(g)
    omega = [group.power(g, d // 2) for g, d in zip(ab.factor_gens, ab.invariants)]
    s_sub = subgroup(group, ab.derived.gens + tuple(omega))
    c_sub = subgroup(group, ab.derived.gens + tuple(basis))
    return (s_sub.order // c_sub.order).bit_length() - 1, s_sub, c_sub, witnesses


def element_closure(group, gens, normal_closure=False):
    """(kept generators, element set) of the smallest (normal) subgroup
    containing gens, closed element by element: a new generator g adds the
    coset H*g and closes it under right multiplication by the kept
    generators, since every element of <H, g> outside H is h*g*w; for the
    normal closure the conjugates of each kept generator by the group's
    generators are queued as further candidates.  The oracle of
    `pcgroup.subgroup`, which closes an induced pc sequence instead."""
    elems = {group.identity}
    kept = []
    queue = deque(gens)
    while queue:
        g = queue.popleft()
        if g in elems:
            continue
        kept.append(g)
        frontier = [group.mult(h, g) for h in elems]
        elems.update(frontier)
        while frontier:
            nxt = []
            for x in frontier:
                for k in kept:
                    y = group.mult(x, k)
                    if y not in elems:
                        elems.add(y)
                        nxt.append(y)
            frontier = nxt
        if normal_closure:
            queue.extend(group.conj(g, x) for x in group.generators)
    return kept, frozenset(elems)


def least_in_coset(group, sub_elems, g):
    """Lexicographically least element of the coset g * H, H given by its
    elements: the oracle of `Subgroup.sift`."""
    return min((group.mult(g, c) for c in sub_elems), key=group.lexkey)


def cyclic_product(exponents):
    """C_{2^e1} x C_{2^e2} x ...: one chain of squaring generators per factor."""
    n = sum(exponents)
    powers = [0] * n
    pos = 0
    for e in exponents:
        for i in range(pos, pos + e - 1):
            powers[i] = 1 << (i + 1)
        pos += e
    name = "x".join(f"C{1 << e}" for e in exponents)
    return PcGroup(name, n, powers, [[0] * n for _ in range(n)], validate=True)


def relabel(group, rng):
    """An isomorphic copy of a group whose last generators form a central
    block: they carry no relations of their own and hold every relation
    value.  A seeded invertible GF(2) change of basis of that block is
    applied to every relation value."""
    support = 0
    for w in list(group.powers) + [w for row in group.comms for w in row]:
        support |= w
    c = (support & -support).bit_length() - 1
    m = group.n - c
    assert m >= 2 and not any(group.powers[c:]) and not any(any(r) for r in group.comms[c:])
    while True:
        cols = [rng.getrandbits(m) for _ in range(m)]
        if gf2_rank(cols) == m:
            break

    def image(word):
        out = word & ((1 << c) - 1)
        for j in range(m):
            if word >> (c + j) & 1:
                out ^= cols[j] << c
        return out

    powers = [image(p) for p in group.powers]
    comms = [[image(w) for w in row] for row in group.comms]
    return PcGroup(f"{group.name}_relabelled", group.n, powers, comms, validate=True)


@pytest.fixture(scope="session")
def small_family(cat):
    """Groups of order <= 2^7 small enough for |G|^2 oracles: shipped groups,
    seeded R(k,m), Schur covers, and covers of covers on the generic path."""
    out = [cat[name] for name in SHIPPED_SMALL]
    out += [rkm(k, m, seed) for k, m, seed in RKM]
    out += [schur_cover(cat[name]).cover for name in COVERED]
    out += [schur_cover(schur_cover(cat[name]).cover).cover for name in TWICE_COVERED]
    assert sum(not g.is_fast for g in out) >= 5
    return out


# -- F2 polynomials on exponent tuples -------------------------------------------
# f2poly's arithmetic and the Buchberger oracle as they read before monomials
# were packed into ints: a polynomial is a frozenset of exponent tuples and
# grlex is the key (degree, tuple).  The packed layer is compared with these.


def grlex_key(m):
    return (sum(m), m)


def xor_all(monos):
    """The frozenset of the monomials that occur an odd number of times."""
    acc = set()
    for m in monos:
        acc ^= {m}
    return frozenset(acc)


def tuple_mul(f, g):
    return xor_all(tuple(x + y for x, y in zip(a, b)) for a in f for b in g)


def tuple_pow(f, k, nvars):
    result = frozenset([(0,) * nvars])
    for _ in range(k):
        result = tuple_mul(result, f)
    return result


def tuple_sq1(f):
    return xor_all(m[:i] + (e + 1,) + m[i + 1:] for m in f for i, e in enumerate(m) if e & 1)


def tuple_str(variables, f):
    terms = []
    for m in sorted(f, key=grlex_key, reverse=True):
        factors = [name if e == 1 else f"{name}^{e}" for name, e in zip(variables, m) if e]
        terms.append("*".join(factors) if factors else "1")
    return "+".join(terms) or "0"


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def tuple_normal_form(f, basis):
    lead = [(max(g, key=grlex_key), g) for g in basis if g]
    work, result = set(f), set()
    while work:
        lm = max(work, key=grlex_key)
        for glm, g in lead:
            if _divides(glm, lm):
                cof = tuple(y - x for x, y in zip(glm, lm))
                work ^= tuple_mul(g, [cof])
                break
        else:
            work.remove(lm)
            result.add(lm)
    return frozenset(result)


def tuple_groebner(gens, max_degree=None):
    basis = [g for g in gens if g]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i)]
    while pairs:
        i, j = pairs.pop()
        lmi, lmj = (max(basis[k], key=grlex_key) for k in (i, j))
        lcm = tuple(max(x, y) for x, y in zip(lmi, lmj))
        if lcm == tuple(x + y for x, y in zip(lmi, lmj)):
            continue
        if max_degree is not None and sum(lcm) > max_degree:
            continue
        s = (tuple_mul(basis[i], [tuple(x - y for x, y in zip(lcm, lmi))])
             ^ tuple_mul(basis[j], [tuple(x - y for x, y in zip(lcm, lmj))]))
        r = tuple_normal_form(s, basis)
        if r:
            basis.append(r)
            pairs.extend((len(basis) - 1, k) for k in range(len(basis) - 1))
    leads = [max(g, key=grlex_key) for g in basis]
    minimal = [g for i, g in enumerate(basis)
               if not any(j != i and _divides(leads[j], leads[i])
                          and (leads[j] != leads[i] or j < i) for j in range(len(basis)))]
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = tuple_normal_form(g, others) if others else g
        if r:
            reduced.append(r)
    reduced.sort(key=lambda g: grlex_key(max(g, key=grlex_key)))
    return reduced


def tuple_monomials(nvars, d):
    """The degree-d monomials, descending grlex: one per multiset of d variables."""
    multisets = itertools.combinations_with_replacement(range(nvars), d)
    return sorted({tuple(c.count(i) for i in range(nvars)) for c in multisets}, reverse=True)


def tuple_degree_slice(gens, d, nvars):
    """(degree-d monomials, the span of the rows g * m, their (gi, m))."""
    monos = tuple_monomials(nvars, d)
    index = {m: i for i, m in enumerate(monos)}
    span, products = Gf2Span(), []
    for gi, g in enumerate(gens):
        dg = max(map(sum, g), default=d + 1)
        for m in tuple_monomials(nvars, d - dg) if dg <= d else []:
            span.add(sum(1 << index[p] for p in tuple_mul(g, [m])))
            products.append((gi, m))
    return monos, span, products


def tuple_degree_membership(f, gens, d, nvars):
    """(True, coefficient per generator) or (False, the residue of f)."""
    monos, span, products = tuple_degree_slice(gens, d, nvars)
    vec = sum(1 << monos.index(m) for m in f)
    combo = span.solve(vec)
    if combo is None:
        return False, frozenset(monos[i] for i in iter_bits(span.reduce(vec)))
    coeffs = [set() for _ in gens]
    for k in iter_bits(combo):
        gi, m = products[k]
        coeffs[gi].add(m)
    return True, [frozenset(c) for c in coeffs]
