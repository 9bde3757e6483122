"""K-theoretic invariants of 2-adic group rings of finite 2-groups.

H^1(Wh'(Z2^G)) is computed by the S/C recipe: S = {g : g^2 in [G,G]},
C = <g in S : g conjugate to g^-1, or g in [G,G]>, and the answer is the
elementary abelian quotient S/C.  SK_1(Z2^G) is H_2(G) modulo the commuting
wedges, computed in the kernel coordinates of a cover presentation.  The
extension criteria take the generator t of a central order-2 subgroup
sigma = <t> of a cover and test (a) sigma inside the derived subgroup with
t not a commutator, (b) the conjugate-to-inverse lifting condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice, repeat
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .catalog import Fingerprint, fingerprint
from .linalg import (Gf2Span, gf2_rref, iter_bits, least_images, linear_map,
                     smith_normal_form, span_elements)
from .pcgroup import (
    PcError,
    PcGroup,
    ScaleError,
    Subgroup,
    _inverse_conjugator_fast,
    _quotient,
    abelianization,
    center_transversal,
    central_lift,
    central_quotient,
    check_element_walk,
    conjugacy_classes,
    conjugacy_orbit,
    conjugate_to_inverse_witness,
    derived_subgroup,
    frattini_generators,
    standard_subgroups,
    subgroup,
    wedge_pairs,
)
from .homology import CoverPresentation, cover_presentation


@dataclass
class WhPrimeData:
    """H^1(Wh'(Z2^G)) = (Z/2)^rank together with S, C and witnesses."""

    group: object
    s_subgroup: Subgroup
    c_subgroup: Subgroup
    rank: int
    _pairs: Callable[[], Iterator[Tuple[int, int]]] = field(repr=False)

    @cached_property
    def witnesses(self) -> List[Tuple[int, int]]:
        """(g, h), h^-1 g h = g^-1, for each such g in S - [G,G] ascending."""
        return list(self._pairs())

    def as_dict(self) -> Dict:
        g = self.group
        return {
            "rank": self.rank,
            "s_order": self.s_subgroup.order,
            "c_order": self.c_subgroup.order,
            "witnesses": [[g.element_str(a), g.element_str(h)]
                          for a, h in islice(self._pairs(), 16)],
        }


def h1_wh_prime(group) -> WhPrimeData:
    """Rank r with H^1(Wh'(Z2^G)) isomorphic to (Z/2)^r.

    S is read off the Smith coordinates of `abelianization` with no
    squaring (`Abelianization.s_elements`), on both collectors; [G,G] is
    the abelianization's own.  C contains [G,G], so it is normal, and
    C/[G,G] is the span in S/[G,G] (`Abelianization.omega_bits`) of the
    elements with a witness.  A class lies in one [G,G]-coset, so C's
    generators over [G,G] are the first members, ascending, of the cosets
    (fast path) or reps of real classes with a new omega_bits, until
    the span is all of S/[G,G].

    Fast path: [G,G] is central of exponent 2, so (gc)^2 = g^2 and
    [gc, x_i] = [g, x_i]: one `_inverse_conjugator_fast` serves a coset.
    The cosets are the subset products of the omega_j = (factor generator
    j)^(d_j/2), keyed by their least members, a `linear_map` of g
    (`least_images`), and visited ascending, as an ascending walk of S
    first meets them.  Generic path: the classes are `conjugacy_classes`
    records, in order; (g k)^h = g^-1 k = (g k)^-1 for g^h = g^-1 and k
    in K, the central elementary tail of `pcgroup._quotient`, so one
    `conjugate_to_inverse_witness` serves a K-coset.  `witnesses` walks S
    on first read, solving the cosets not yet reached.
    """
    check_element_walk(group, "h1_wh_prime")
    ab = abelianization(group)
    # S/[G,G] = Omega_1(G^ab), generated by the (factor generator j)^(d_j/2)
    omega = [group.power(g, d // 2) for g, d in zip(ab.factor_gens, ab.invariants)]
    if group.is_fast:
        least = linear_map(least_images(ab.derived.seq, group.n))
        solved: Dict[int, Optional[int]] = {0: None}  # least member of a coset -> h

        def witness(g: int) -> Optional[int]:
            key = least(g)
            if key not in solved:
                solved[key] = _inverse_conjugator_fast(group, key)
            return solved[key]

        reps = [group.identity]  # at index v, a member of the coset with omega_bits v
        for w in omega:
            reps += [group.mult(r, w) for r in reps]
        firsts = sorted(zip(map(least, reps), range(len(reps))))
    else:
        mask, solved = _quotient(group)[0].order - 1, {}  # solved[g & mask]: h for g K

        def witness(g: int) -> Optional[int]:
            if g in ab.derived.elements:
                return None
            key = g & mask
            if key not in solved:
                solved[key] = conjugate_to_inverse_witness(group, key)
            return solved[key]

        firsts = ((c.rep, ab.omega_bits(c.rep)) for c in conjugacy_classes(group) if c.is_real)
    span, basis = Gf2Span(), []  # C/[G,G] in omega_bits, and C's generators over [G,G]
    for g, v in firsts:
        if len(span) == len(omega):
            break
        if v and not span.contains(v) and witness(g) is not None:
            span.add(v)
            basis.append(g)

    def pairs() -> Iterator[Tuple[int, int]]:
        return ((g, h) for g in ab.s_elements() if (h := witness(g)) is not None)

    s_sub = subgroup(group, ab.derived.gens + tuple(omega))
    c_sub = subgroup(group, ab.derived.gens + tuple(basis))
    rank = (s_sub.order // c_sub.order).bit_length() - 1
    return WhPrimeData(group, s_sub, c_sub, rank, pairs)


# sk1 multiplies each pair of `wedge_pairs` both ways in the cover: at most
# n per coset of the center (fast path) or class of G/K (generic path) and
# n per generator of Z(G), so at most |G| n, which bounds the pair count
# before anything is built.  On one 2-vCPU core: G16384 (229,376 allowed,
# 850 actual pairs, a 42-generator cover) 0.41-0.46 s at a 27 MB peak
# through the CLI; the class-3 cover of SG256_8129 (2^14, generic
# collector, 703 pairs) 0.07-0.09 s at a 20 MB peak in-process, its own
# cover presentation included.
SK1_PAIR_BOUND = 1 << 18


def check_sk1_pairs(group) -> None:
    """Raise ScaleError before `sk1` walks more than SK1_PAIR_BOUND pairs."""
    if group.order * group.n > SK1_PAIR_BOUND:
        raise ScaleError(
            f"sk1 bound is |G| n <= 2^{SK1_PAIR_BOUND.bit_length() - 1} "
            f"(class representative, centralizer generator) pairs, "
            f"got 2^{group.n} x {group.n}"
        )


@dataclass
class SK1Data:
    """SK_1(Z2^G) = H_2(G) / <commuting wedges>, the cokernel of the wedge
    rows stacked with diag(d_j) in the cover's kernel coordinates.

    `smith_diag` and `smith_v` are D and V of the Smith form U A V = D of
    that stacked matrix A over Z/2|G|: x lies in the row span of A exactly
    when every (x V)_j is divisible by D_j."""

    group: PcGroup
    cover: CoverPresentation
    invariants: Tuple[int, ...]
    smith_diag: Tuple[int, ...]
    smith_v: Tuple[Tuple[int, ...], ...]

    @property
    def order(self) -> int:
        return math.prod(self.invariants)

    @property
    def stem_order(self) -> int:
        """|H_2(G)|: the cover's kernel, all of it inside [SC,SC]."""
        return math.prod(self.cover.h2_invariants)

    @property
    def wedge_order(self) -> int:
        return self.stem_order // self.order

    def omega_nontrivial(self, stem_element: int) -> bool:
        """True when an element of the cover's kernel maps to a nonzero
        class of SK_1, i.e. lies outside the commuting-wedge subgroup."""
        x = self.cover.kernel_coordinates(stem_element)
        modulus = 2 * self.group.order
        for j, d in enumerate(self.smith_diag):
            if sum(c * row[j] for c, row in zip(x, self.smith_v)) % modulus % d:
                return True
        return False

    def as_dict(self) -> Dict:
        return {
            "invariants": list(self.invariants),
            "order": self.order,
            "stem_order": self.stem_order,
            "wedge_order": self.wedge_order,
            "h2_invariants": list(self.cover.h2_invariants),
        }


def sk1(group: PcGroup, cover: Optional[CoverPresentation] = None) -> SK1Data:
    """Abelian invariants of SK_1 of the 2-adic group ring of G, from the
    cover presentation alone: no cover element is listed.

    The wedges [g~, h~] over the pairs of `wedge_pairs`, read in kernel
    coordinates by `CoverPresentation.wedge`, generate the same subgroup as
    those of all commuting pairs (`wedge_pairs` gives the argument;
    `commuting_wedges` closes the same pairs in the listed cover).

    Scale bounds: |G| n <= SK1_PAIR_BOUND, the element walk of
    `wedge_pairs`, and those of `cover_presentation`, all checked before
    the walk or the cover begins.
    """
    check_sk1_pairs(group)
    pairs = list(wedge_pairs(group))
    if cover is None:
        cover = cover_presentation(group)
    d = cover.h2_invariants
    wedges = {cover.wedge(g, h) for g, hs in pairs for h in hs}
    rows = [[m if i == j else 0 for j in range(len(d))] for i, m in enumerate(d)]
    rows += sorted(wedges)
    diag, v, _vinv = smith_normal_form(rows, 2 * group.order)
    if 0 in diag:
        raise PcError("wedge cokernel has a free part: the kernel is not H_2")
    return SK1Data(
        group=group,
        cover=cover,
        invariants=tuple(x for x in diag if x > 1),
        smith_diag=tuple(diag),
        smith_v=tuple(map(tuple, v)),
    )


@dataclass(frozen=True)
class CentralExtensionData:
    """<t> >-> pi~ ->> pi: t central of order two, alpha onto pi, ker alpha = <t>."""

    cover_group: object
    t: int
    alpha: object  # GroupHom onto the quotient
    sigma_in_derived: bool

    @property
    def quotient(self):
        return self.alpha.target


def _extension(cover_group, t: int, alpha) -> CentralExtensionData:
    return CentralExtensionData(cover_group, t, alpha, t in derived_subgroup(cover_group))


def central_extension(cover_group: PcGroup, sigma_word: Sequence[int]) -> CentralExtensionData:
    """Natural quotient extension by the order-2 central subgroup <word>."""
    t = cover_group.element_from_indices(sigma_word)
    return _extension(cover_group, t, central_quotient(cover_group, t))


def central_extension_from_hom(cover_group, alpha) -> CentralExtensionData:
    """Extension data for an explicit surjection with order-2 central kernel."""
    check_element_walk(cover_group, "central_extension_from_hom")
    ker = alpha.kernel()
    if ker.order != 2 or not ker.is_central:
        raise PcError("kernel must be central of order two")
    if not alpha.is_surjective():
        raise PcError("alpha must be surjective")
    return _extension(cover_group, ker.seq[0], alpha)


def commutator_values(group, transversal: Sequence[int]) -> Dict[int, int]:
    """Each central commutator t mapped to the first g of `center_transversal`
    with t in [g, G] = g^-1 g^G: the g of the first pair (g, h) of the scan
    over the transversal in both arguments, since [gz, h] = [g, hz] = [g, h]
    for central z.  One pass, until the keys fill [G,G].  Fast path: [g, G]
    is the span of `comm_images`(g).  Generic path: g^-1 y over the
    `conjugacy_orbit` of g, skipping g if an earlier walk listed its class:
    [g^a, G] = [g, G]^a has the same central values, so the pass is at
    most one class walk.  Non-central keys may be missing
    or map to a later g."""
    check_element_walk(group, "commutator_values")
    size, first, walked = derived_subgroup(group).order, {}, set()
    gens = None if group.is_fast else frattini_generators(group)
    for g in transversal:
        if len(first) == size:
            break
        if gens is None:
            values = span_elements(gf2_rref(group.comm_images(g)))
        else:
            orbit = {} if g in walked else conjugacy_orbit(group, g, _gens=gens)
            walked.update(orbit)
            values = map(group.mult, repeat(group.inv(g)), orbit)
        for c in values:
            first.setdefault(c, g)
    return first


@dataclass
class CriterionResult:
    holds: bool
    witness: Optional[Dict] = None

    def as_dict(self) -> Dict:
        out = {"holds": self.holds}
        if self.witness:
            out["witness"] = self.witness
        return out


def thm41_check(ext: CentralExtensionData) -> CriterionResult:
    """sigma inside the derived subgroup and its generator not a commutator.

    When this holds, SK_1 of the 2-adic group ring of the quotient is
    nonzero (the map from the cover's SK_1 cannot be surjective).
    """
    g, t = ext.cover_group, ext.t
    if not ext.sigma_in_derived:
        return CriterionResult(False, {"reason": "sigma not inside derived subgroup"})
    elems = center_transversal(g)
    a = commutator_values(g, elems).get(t)
    if a is not None:
        b = next(b for b in elems if g.comm(a, b) == t)
        pair = [g.element_str(a), g.element_str(b)]
        return CriterionResult(False, {"reason": "sigma generator is a commutator", "pair": pair})
    return CriterionResult(True, {"sigma": g.element_str(t)})


def thm42_check(ext: CentralExtensionData, _classes=None) -> CriterionResult:
    """Every quotient element conjugate to its inverse lifts to one with the
    same property; false comes with the offending element, printed as its
    lexicographically least preimage in brackets.  The scan runs on the
    classes of `central_quotient(cover, t)`, built here unless the caller
    has them (`_classes`), so any surjection with kernel <t> gives the same
    answer.

    One preimage l of h decides: t is central of order two, so y^-1 (l t) y
    = (l t)^-1 = l^-1 t exactly when y^-1 l y = l^-1."""
    g, t = ext.cover_group, ext.t
    if _classes is None:
        _classes = conjugacy_classes(central_quotient(g, t).target)
    for cls in _classes:
        if not cls.is_real:
            continue
        lift = central_lift(t, cls.rep)
        if conjugate_to_inverse_witness(g, lift) is None:
            return CriterionResult(False, {"counterexample": f"[{g.element_str(lift)}]"})
    return CriterionResult(True)


@dataclass
class ExtensionSearchEntry:
    sigma_word: List[int]
    extension: CentralExtensionData
    quotient_fingerprint: Fingerprint
    thm42_holds: bool

    def as_dict(self) -> Dict:
        return {
            "sigma": self.sigma_word,
            "quotient_order": self.extension.quotient.order,
            "quotient_fingerprint": self.quotient_fingerprint.as_dict(),
            "thm42": self.thm42_holds,
        }


def search_central_extensions(group) -> List[ExtensionSearchEntry]:
    """One entry per order-2 central commutator-subgroup element that is not
    itself a commutator; quotients are deduplicated by fingerprint."""
    check_element_walk(group, "search_central_extensions")
    std = standard_subgroups(group)
    commutators = commutator_values(group, center_transversal(group))
    entries: List[ExtensionSearchEntry] = []
    seen_fps = []
    for t in std.center_cap_derived.sorted_elements():
        if t == group.identity:
            continue
        if group.element_order(t) != 2 or t in commutators:
            continue
        # every candidate lies in Z(G) n [G,G], so sigma_in_derived holds
        ext = CentralExtensionData(group, t, central_quotient(group, t), True)
        classes = conjugacy_classes(ext.quotient)
        fp = fingerprint(ext.quotient, classes)
        if fp in seen_fps:
            continue
        seen_fps.append(fp)
        t42 = thm42_check(ext, classes)
        entries.append(
            ExtensionSearchEntry(
                sigma_word=[b + 1 for b in iter_bits(t)],
                extension=ext,
                quotient_fingerprint=fp,
                thm42_holds=t42.holds,
            )
        )
    return entries
