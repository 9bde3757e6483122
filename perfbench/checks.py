"""Answer checks.  Each compares a result with a published value, with a
computation made apart from the method under test, or with a property the
method must have.  None compares with a saved copy of earlier output.

Every check raises CheckFailed on a wrong value; check_tests.py shows that
each one does.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

# Published values from the source paper.
H1_RANK = {"SG128_1377": 0, "SG256_9039": 1, "G16384": 3}
LAMBDA4_VERDICT = {"G16384": "nonzero", "SG256_9039": "zero"}
SK1_INVARIANTS = {"SG128_1376": (2,), "SG128_1377": (2,)}
# search_central_extensions: group -> (sigma word, quotient's catalog name)
SEARCH_EXT = {"SG256_8177": ([7, 8], "SG128_1377"), "SG256_8129": ([5, 8], "SG128_1376")}
# Abelian invariants of the shipped abelian groups, read off their names.
ABELIAN = {
    "C2": (2,), "C4": (4,), "C8": (8,), "C2xC2": (2, 2),
    "C2xC2xC2": (2, 2, 2), "C2xC4": (2, 4),
}


class CheckFailed(AssertionError):
    """A benchmark answer is wrong."""


def expect(what: str, got, want) -> None:
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def witnesses(group, pairs: Iterable[Tuple[int, int]]) -> None:
    """Every (g, h) satisfies h^-1 g h = g^-1."""
    for g, h in pairs:
        if group.conj(g, h) != group.inv(g):
            raise CheckFailed(f"{group.name}: witness ({g}, {h}) does not invert {g}")


def rank_zero_means_zero(rank: int, verdict: str) -> None:
    if rank == 0 and verdict != "zero":
        raise CheckFailed(f"H^1(Wh') rank 0 but lambda_4 verdict {verdict!r}")


def class_equation(order: int, classes) -> None:
    """Class sizes sum to |G| and |class| * |C_G(g)| = |G| for each class."""
    total = 0
    for cls in classes:
        size = len(cls.elements)
        if size * cls.centralizer_order != order:
            raise CheckFailed(
                f"class of {cls.rep}: {size} * {cls.centralizer_order} != {order}"
            )
        total += size
    if total != order:
        raise CheckFailed(f"class sizes sum to {total}, not {order}")


def mult_table(group) -> List[List[int]]:
    """table[g][h] = gh over the elements 0 .. |G|-1 (pc normal forms)."""
    elems = range(group.order)
    return [[group.mult(g, h) for h in elems] for g in elems]


def commuting_pair_count(table: List[List[int]]) -> int:
    n = len(table)
    return sum(1 for g in range(n) for h in range(n) if table[g][h] == table[h][g])


def burnside(order: int, class_count: int, pairs: int) -> None:
    """The number of classes is the number of commuting pairs over |G|."""
    if class_count * order != pairs:
        raise CheckFailed(f"{class_count} classes but {pairs} commuting pairs, |G| = {order}")


def _closure(table: List[List[int]], gens: Iterable[int]) -> set:
    elems = {0}
    frontier = [0]
    gens = list(gens)
    while frontier:
        nxt = []
        for x in frontier:
            row = table[x]
            for g in gens:
                y = row[g]
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def brute_h1_rank(table: List[List[int]]) -> int:
    """rank of S/C recounted element by element from the multiplication
    table: the derived subgroup from all commutators, S = {g : g^2 in
    [G,G]}, and C generated by [G,G] and the elements of S conjugate to
    their inverse by some h in G."""
    n = len(table)
    elems = range(n)
    inv = [table[g].index(0) for g in elems]
    comms = {table[table[inv[g]][inv[h]]][table[g][h]] for g in elems for h in elems}
    derived = _closure(table, comms)
    s = [g for g in elems if table[g][g] in derived]
    real = [g for g in s if any(table[table[inv[h]][g]][h] == inv[g] for h in elems)]
    c = _closure(table, list(derived) + real)
    return (len(s) // len(c)).bit_length() - 1


def h1_rank(group_name: str, rank: int) -> None:
    if group_name in H1_RANK:
        expect(f"{group_name} H^1(Wh') rank", rank, H1_RANK[group_name])


def lambda4(group_name: str, verdict: str, certificate) -> None:
    if group_name in LAMBDA4_VERDICT:
        expect(f"{group_name} lambda_4 verdict", verdict, LAMBDA4_VERDICT[group_name])
    if verdict == "nonzero" and not certificate:
        raise CheckFailed(f"{group_name}: nonzero lambda_4 verdict without certificate")


def search_ext(group_name: str, entries: Sequence[Dict], quotient_fingerprints: Dict) -> None:
    """Exactly one entry: the published sigma, quotient fingerprint equal to
    the named shipped group's, and thm42 true."""
    sigma, qname = SEARCH_EXT[group_name]
    if len(entries) != 1:
        raise CheckFailed(f"{group_name}: {len(entries)} search-ext entries, expected 1")
    e = entries[0]
    expect(f"{group_name} sigma", list(e["sigma"]), sigma)
    expect(f"{group_name} quotient fingerprint", e["quotient_fingerprint"],
           quotient_fingerprints[qname])
    expect(f"{group_name} thm42", e["thm42"], True)


def abelian_invariants(group) -> Tuple[int, ...]:
    """Invariants of an abelian 2-group from its numbers of elements of
    each order, without the program's routine."""
    counts: Dict[int, int] = {}
    for g in group.elements():
        o, x = 1, g
        while x != group.identity:
            x = group.mult(x, x)
            o <<= 1
        counts[o] = counts.get(o, 0) + 1
    # logs[e] = log2 #{g : g^(2^e) = 1}; logs[e] - logs[e-1] counts the
    # cyclic factors of order >= 2^e
    logs = [0]
    below = 1
    while below < group.order:
        below += counts.get(1 << len(logs), 0)
        logs.append(below.bit_length() - 1)
    at_least = [logs[e] - logs[e - 1] for e in range(1, len(logs))] + [0]
    out: List[int] = []
    for e in range(1, len(at_least)):
        out += [1 << e] * (at_least[e - 1] - at_least[e])
    return tuple(out)


def kunneth_h2(invariants: Sequence[int]) -> Tuple[int, ...]:
    inv = list(invariants)
    return tuple(sorted(min(a, b) for i, a in enumerate(inv) for b in inv[i + 1:]))


def divides(a: int, b: int, what: str) -> None:
    if b % a:
        raise CheckFailed(f"{what}: {a} does not divide {b}")


def sk1_answer(group, oracle_h2, sk1_inv: Sequence[int], h2_inv: Sequence[int]) -> None:
    """SK_1 published values, trivial SK_1 and Kunneth H_2 for abelian
    groups, the bar-resolution H_2 for |G| <= 16, |SK_1| dividing |H_2|."""
    name = group.name
    if name in SK1_INVARIANTS:
        expect(f"{name} SK_1", tuple(sk1_inv), SK1_INVARIANTS[name])
    if name in ABELIAN:
        expect(f"{name} abelian invariants", abelian_invariants(group), ABELIAN[name])
        expect(f"{name} SK_1", tuple(sk1_inv), ())
        expect(f"{name} H_2", tuple(h2_inv), kunneth_h2(ABELIAN[name]))
    if oracle_h2 is not None:
        expect(f"{name} H_2 against the bar resolution", tuple(h2_inv), tuple(oracle_h2))
    divides(product(sk1_inv), product(h2_inv), f"{name} |SK_1| | |H_2|")


def cover_answer(order: int, cover_order: int, kernel_order: int, stem_order: int,
                 h2_inv: Sequence[int]) -> None:
    """|cover| = |G| |kernel| and the stem part has order |H_2|."""
    expect("cover order", cover_order, order * kernel_order)
    expect("stem order", stem_order, product(h2_inv))


def compat(verdict: str) -> None:
    expect("compatible pair verdict", verdict, "compatible")


def page4(variables: Sequence[str], dead: Sequence[str], survivors: Sequence[str]) -> None:
    """A pure quartic X^4 survives exactly when it is outside the span of
    the dead quartics; the two lists come from different routines."""
    index = {v: i for i, v in enumerate(variables)}
    pivots: Dict[int, int] = {}

    def reduce(mask: int) -> int:
        while mask and (mask.bit_length() - 1) in pivots:
            mask ^= pivots[mask.bit_length() - 1]
        return mask

    for poly in dead:
        mask = 0
        for term in poly.split("+"):
            var, _, exp = term.partition("^")
            if exp != "4" or var not in index:
                raise CheckFailed(f"dead quartic {poly!r} is not a sum of pure quartics")
            mask ^= 1 << index[var]
        mask = reduce(mask)
        if mask:
            pivots[mask.bit_length() - 1] = mask
    want = [f"{v}^4" for v in variables if reduce(1 << index[v])]
    expect("page-4 survivors", sorted(survivors), sorted(want))


def conj62(order: int, sequences: Sequence[Dict]) -> None:
    """N < T <= W with |T| = 2|N|, |W| = |G|/2, cyclic G/N of order >= 4,
    and parity the parity of the class count."""
    for s in sequences:
        expect("conj62 |T|", s["T_order"], 2 * s["N_order"])
        expect("conj62 |W|", s["W_order"], order // 2)
        expect("conj62 |G/N|", s["cyclic_quotient_order"], order // s["N_order"])
        if s["cyclic_quotient_order"] < 4:
            raise CheckFailed("conj62 cyclic quotient of order < 4")
        expect("conj62 parity", s["parity"], "odd" if s["classes_in_T_minus_N"] % 2 else "even")


def product(xs: Iterable[int]) -> int:
    out = 1
    for x in xs:
        out *= x
    return out
