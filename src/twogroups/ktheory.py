"""K-theoretic invariants of 2-adic group rings of finite 2-groups.

H^1(Wh'(Z2^G)) is computed by the S/C recipe: S = {g : g^2 in [G,G]},
C = <g in S : g conjugate to g^-1, or g in [G,G]>, and the answer is the
elementary abelian quotient S/C.  SK_1(Z2^G) is H_2(G) modulo the commuting
wedges, computed in the kernel coordinates of a cover presentation.  The
extension criteria take a central order-2 subgroup sigma of a cover and test
(a) sigma inside the derived subgroup with its generator not a commutator,
(b) the conjugate-to-inverse lifting condition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import Fingerprint, fingerprint
from .linalg import Gf2Span, elementary_coordinates, iter_bits, smith_normal_form
from .pcgroup import (
    PcError,
    PcGroup,
    ScaleError,
    Subgroup,
    _inverse_conjugator_fast,
    center_transversal,
    central_lift,
    central_quotient,
    check_element_walk,
    class_centralizers,
    conjugacy_classes,
    conjugacy_orbit,
    conjugate_to_inverse_witness,
    derived_subgroup,
    is_central_quotient,
    standard_subgroups,
    subgroup,
)
from .homology import CoverPresentation, cover_presentation


@dataclass
class WhPrimeData:
    """H^1(Wh'(Z2^G)) = (Z/2)^rank together with S, C and witnesses."""

    group: object
    s_subgroup: Subgroup
    c_subgroup: Subgroup
    rank: int
    witnesses: List[Tuple[int, int]]  # (g, h) with h^-1 g h = g^-1

    def as_dict(self) -> Dict:
        g = self.group
        return {
            "rank": self.rank,
            "s_order": self.s_subgroup.order,
            "c_order": self.c_subgroup.order,
            "witnesses": [
                [g.element_str(a), g.element_str(h)] for a, h in self.witnesses[:16]
            ],
        }


def h1_wh_prime(group) -> WhPrimeData:
    """Rank r with H^1(Wh'(Z2^G)) isomorphic to (Z/2)^r.

    S is read off by membership of g^2 in [G,G].  Witnesses: on class-<=2
    pc groups the GF(2) solve of `_inverse_conjugator_fast` once per coset
    g ^ [G,G] ([G,G] is central of exponent 2, so (gc)^2 = g^2 and [gc, x_i]
    = [g, x_i]); otherwise one orbit walk per class, in element order: if
    a_y^-1 r a_y = y for the class's first element r, then h = a_y^-1 a_{y^-1}
    conjugates y to y^-1.
    C contains [G,G], so it is normal, and every g in S has g^2 in [G,G]:
    each newly witnessed g doubles C to C u Cg, which is how
    `elementary_coordinates` builds it on top of [G,G].
    """
    check_element_walk(group, "h1_wh_prime")
    der = derived_subgroup(group)
    fast = isinstance(group, PcGroup) and group.is_fast
    if fast:
        der_span = Gf2Span(der.gens)
        solved: Dict[int, Optional[int]] = {}
    s_elems = [g for g in group.elements() if group.square(g) in der.elements]
    witnesses: List[Tuple[int, int]] = []
    orbit_of: Dict[int, Dict[int, int]] = {}
    for g in s_elems:
        if g in der.elements:
            continue
        if fast:
            key = der_span.reduce(g)
            if key not in solved:
                solved[key] = _inverse_conjugator_fast(group, g)
            h = solved[key]
        else:
            if g not in orbit_of:
                orbit = conjugacy_orbit(group, g)
                orbit_of.update(dict.fromkeys(orbit, orbit))
            orbit = orbit_of[g]
            to_inv = orbit.get(group.inv(g))
            h = None if to_inv is None else group.mult(group.inv(orbit[g]), to_inv)
        if h is not None:
            witnesses.append((g, h))
    basis, table = elementary_coordinates(group.mult, der.elements, (g for g, _ in witnesses))
    s_set = frozenset(s_elems)
    s_sub = Subgroup(group, sorted(s_set, key=group.lexkey), s_set)
    c_sub = Subgroup(group, der.gens + tuple(basis), frozenset(table))
    rank = (s_sub.order // c_sub.order).bit_length() - 1
    return WhPrimeData(group, s_sub, c_sub, rank, witnesses)


# sk1 walks every element for its class and centralizer generators, and
# multiplies each (representative, generator) pair both ways in the cover.
# A class of size c has at most c n Schreier generators, so |G| n bounds the
# pair count before anything is built.  In-process on one 2-vCPU core:
# G16384 (2^14 x 14 = 229,376 allowed, 56,000 actual pairs, a 42-generator
# cover) 2.8 s at 54 MB; the class-3 cover of SG256_8129 (2^14, generic
# collector) 4.4 s at 94 MB.
SK1_PAIR_BOUND = 1 << 18


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

    The wedges [g~, h~] over the pairs (g, h) of `class_centralizers`, read
    in kernel coordinates by `CoverPresentation.wedge`, generate the same
    subgroup as those of all commuting pairs (see `commuting_wedges`, the
    materialized oracle).

    Scale bounds: |G| n <= SK1_PAIR_BOUND, the element walk of
    `class_centralizers`, and those of `cover_presentation`, all checked
    before the walk or the cover begins.
    """
    if group.order * group.n > SK1_PAIR_BOUND:
        raise ScaleError(
            f"sk1 bound is |G| n <= 2^{SK1_PAIR_BOUND.bit_length() - 1} "
            f"(class representative, centralizer generator) pairs, "
            f"got 2^{group.n} x {group.n}"
        )
    walk = class_centralizers(group)
    if cover is None:
        cover = cover_presentation(group)
    d = cover.h2_invariants
    wedges = {cover.wedge(g, h) for g, gens in walk for h in gens}
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


@dataclass
class CentralExtensionData:
    """sigma >-> pi~ ->> pi with sigma central of order two."""

    cover_group: object
    sigma: Subgroup
    alpha: object  # GroupHom onto the quotient
    sigma_in_derived: bool = False
    omega_disjoint: Optional[bool] = None
    lifting_condition: Optional[bool] = None

    @property
    def quotient(self):
        return self.alpha.target

    @property
    def t(self) -> int:
        for g in self.sigma.elements:
            if g != self.cover_group.identity:
                return g
        raise PcError("sigma is trivial")


def central_extension(cover_group: PcGroup, sigma_word: Sequence[int]) -> CentralExtensionData:
    """Natural quotient extension by the order-2 central subgroup <word>."""
    t = cover_group.element_from_indices(sigma_word)
    return CentralExtensionData(
        cover_group=cover_group,
        sigma=subgroup(cover_group, [t]),
        alpha=central_quotient(cover_group, t),
        sigma_in_derived=t in derived_subgroup(cover_group).elements,
    )


def central_extension_from_hom(cover_group, alpha) -> CentralExtensionData:
    """Extension data for an explicit surjection with order-2 central kernel."""
    ker = alpha.kernel()
    if ker.order != 2 or not ker.is_central:
        raise PcError("kernel must be central of order two")
    if not alpha.is_surjective():
        raise PcError("alpha must be surjective")
    der = derived_subgroup(cover_group)
    return CentralExtensionData(
        cover_group=cover_group,
        sigma=ker,
        alpha=alpha,
        sigma_in_derived=ker.elements <= der.elements,
    )


def commutator_values(group) -> Dict[int, Tuple[int, int]]:
    """Each commutator [g, h] of G (the set, not its span) mapped to its
    first pair (g, h) in one scan over a transversal of the center in both
    arguments, g outer: [gz, h] = [g, hz] = [g, h] for central z."""
    from .parallel import map_chunks

    elems = center_transversal(group)

    def scan(chunk):
        first: Dict[int, Tuple[int, int]] = {}
        for g in chunk:
            for h in elems:
                first.setdefault(group.comm(g, h), (g, h))
        return first

    return map_chunks(scan, elems)[0]


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
    g = ext.cover_group
    t = ext.t
    if not ext.sigma_in_derived:
        ext.omega_disjoint = False
        return CriterionResult(False, {"reason": "sigma not inside derived subgroup"})
    pair = commutator_values(g).get(t)
    if pair is not None:
        ext.omega_disjoint = False
        return CriterionResult(
            False,
            {
                "reason": "sigma generator is a commutator",
                "pair": [g.element_str(pair[0]), g.element_str(pair[1])],
            },
        )
    ext.omega_disjoint = True
    return CriterionResult(True, {"sigma": g.element_str(t)})


def thm42_check(ext: CentralExtensionData) -> CriterionResult:
    """Every quotient element conjugate to its inverse lifts to one with the
    same property; false comes with the offending element, printed as its
    lexicographically least preimage in brackets.  The scan runs on the pc
    quotient by <t>, so any surjection with kernel <t> gives the same answer.

    One preimage l of h decides: t is central of order two, so y^-1 (l t) y
    = (l t)^-1 = l^-1 t exactly when y^-1 l y = l^-1."""
    g, t = ext.cover_group, ext.t
    alpha = ext.alpha
    if not is_central_quotient(alpha, g, t):
        alpha = central_quotient(g, t)
    q = alpha.target
    for cls in conjugacy_classes(q):
        h = cls.rep
        if q.inv(h) not in cls.elements:
            continue
        lift = central_lift(t, h)
        if conjugate_to_inverse_witness(g, lift) is None:
            ext.lifting_condition = False
            return CriterionResult(False, {"counterexample": f"[{g.element_str(lift)}]"})
    ext.lifting_condition = True
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
    commutators = commutator_values(group)
    entries: List[ExtensionSearchEntry] = []
    seen_fps = []
    for t in std.center_cap_derived.sorted_elements():
        if t == group.identity:
            continue
        if group.element_order(t) != 2 or t in commutators:
            continue
        ext = CentralExtensionData(
            cover_group=group,
            sigma=subgroup(group, [t]),
            alpha=central_quotient(group, t),
            sigma_in_derived=True,
            omega_disjoint=True,
        )
        fp = fingerprint(ext.quotient)
        if fp in seen_fps:
            continue
        seen_fps.append(fp)
        t42 = thm42_check(ext)
        entries.append(
            ExtensionSearchEntry(
                sigma_word=[b + 1 for b in iter_bits(t)],
                extension=ext,
                quotient_fingerprint=fp,
                thm42_holds=t42.holds,
            )
        )
    return entries
