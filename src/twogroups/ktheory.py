"""K-theoretic invariants of 2-adic group rings of finite 2-groups.

H^1(Wh'(Z2^G)) is computed by the S/C recipe: S = {g : g^2 in [G,G]},
C = <g in S : g conjugate to g^-1, or g in [G,G]>, and the answer is the
elementary abelian quotient S/C.  SK_1(Z2^G) comes from a Schur cover as
stem_part / commuting wedges.  The extension criteria take a central
order-2 subgroup sigma of a cover and test (a) sigma inside the derived
subgroup with its generator not a commutator, (b) the conjugate-to-inverse
lifting condition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import Fingerprint, fingerprint
from .linalg import elementary_coordinates, iter_bits
from .pcgroup import (
    PcError,
    PcGroup,
    QuotientGroup,
    Subgroup,
    _inverse_conjugator_fast,
    conjugacy_classes,
    conjugacy_orbit,
    conjugate_to_inverse_witness,
    derived_subgroup,
    standard_subgroups,
    subgroup,
)
from .homology import (
    CoverData,
    commuting_wedges,
    schur_cover,
    subquotient_invariants,
)


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
    pc groups the GF(2) solve of `_inverse_conjugator_fast`; otherwise one
    orbit walk per class, in element order: if a_y^-1 r a_y = y for the
    class's first element r, then h = a_y^-1 a_{y^-1} conjugates y to y^-1.
    C contains [G,G], so it is normal, and every g in S has g^2 in [G,G]:
    each newly witnessed g doubles C to C u Cg, which is how
    `elementary_coordinates` builds it on top of [G,G].
    """
    der = derived_subgroup(group)
    fast = isinstance(group, PcGroup) and group.is_fast
    s_elems = [g for g in group.elements() if group.square(g) in der.elements]
    witnesses: List[Tuple[int, int]] = []
    orbit_of: Dict[int, Dict[int, int]] = {}
    for g in s_elems:
        if g in der.elements:
            continue
        if fast:
            h = _inverse_conjugator_fast(group, g)
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


@dataclass
class SK1Data:
    """SK_1(Z2^G) = stem_part / commuting wedges, with witnesses."""

    group: PcGroup
    cover: CoverData
    wedges: Subgroup
    invariants: Tuple[int, ...]

    @property
    def order(self) -> int:
        n = 1
        for d in self.invariants:
            n *= d
        return n

    def omega_nontrivial(self, stem_element: int) -> bool:
        """True when an element of stem_part maps to a nonzero class of
        SK_1, i.e. lies outside the commuting-wedge subgroup."""
        if stem_element not in self.cover.stem_part.elements:
            raise PcError("element is not in the stem part")
        return stem_element not in self.wedges.elements

    def witnesses(self) -> List[int]:
        """Stem-part elements generating SK_1: the kept generators of the
        closure of the wedges and then the stem part in element order."""
        gens = list(self.wedges.gens) + self.cover.stem_part.sorted_elements()
        span = subgroup(self.cover.cover, gens)
        return [g for g in span.gens if g not in self.wedges.elements]

    def as_dict(self) -> Dict:
        return {
            "invariants": list(self.invariants),
            "order": self.order,
            "stem_order": self.cover.stem_part.order,
            "wedge_order": self.wedges.order,
            "h2_invariants": list(self.cover.h2_invariants),
        }


def sk1(group: PcGroup, cover: Optional[CoverData] = None) -> SK1Data:
    """Abelian invariants of SK_1 of the 2-adic group ring of G."""
    if cover is None:
        cover = schur_cover(group)
    wedges = commuting_wedges(group, cover)
    invariants = subquotient_invariants(cover.cover, cover.stem_part, wedges)
    return SK1Data(group, cover, wedges, invariants)


@dataclass
class CentralExtensionData:
    """sigma >-> pi~ ->> pi with sigma central of order two."""

    cover_group: object
    sigma: Subgroup
    alpha: object  # GroupHom onto the quotient
    quotient: object
    sigma_in_derived: bool = False
    omega_disjoint: Optional[bool] = None
    lifting_condition: Optional[bool] = None

    @property
    def t(self) -> int:
        for g in self.sigma.elements:
            if g != self.cover_group.identity:
                return g
        raise PcError("sigma is trivial")


def central_extension(cover_group, sigma_word: Sequence[int]) -> CentralExtensionData:
    """Natural quotient extension by the order-2 central subgroup <word>."""
    t = cover_group.element_from_indices(sigma_word) if isinstance(
        cover_group, PcGroup
    ) else sigma_word
    sigma = subgroup(cover_group, [t])
    if sigma.order != 2 or not sigma.is_central:
        raise PcError("sigma must be central of order two")
    q = QuotientGroup(cover_group, sigma)
    der = derived_subgroup(cover_group)
    return CentralExtensionData(
        cover_group=cover_group,
        sigma=sigma,
        alpha=q.projection,
        quotient=q,
        sigma_in_derived=sigma.elements <= der.elements,
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
        quotient=alpha.target,
        sigma_in_derived=ker.elements <= der.elements,
    )


def commutator_values(group) -> frozenset:
    """The set {[g, h] : g, h in G} (not its span), over a transversal of
    the center in both arguments: [gz, h] = [g, hz] = [g, h] for central z."""
    from .parallel import map_chunks

    elems = _center_transversal(group)

    def scan(chunk):
        return {group.comm(g, h) for g in chunk for h in elems}

    out: set = set()
    for part in map_chunks(scan, elems):
        out |= part
    return frozenset(out)


def _center_transversal(group) -> List[int]:
    """One element per coset of Z(G): [g, x_i] = [g', x_i] for every
    generator x_i exactly when g'g^-1 is central."""
    gens = group.generators
    reps = []
    seen = set()
    for g in group.elements():
        key = tuple(group.comm(g, x) for x in gens)
        if key not in seen:
            seen.add(key)
            reps.append(g)
    return reps


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
    pair = find_commutator_pair(g, t)
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


def find_commutator_pair(group, t: int) -> Optional[Tuple[int, int]]:
    """A pair (a, b) with [a, b] = t, or None (brute force over pairs of
    center coset representatives)."""
    elems = _center_transversal(group)
    for a in elems:
        for b in elems:
            if group.comm(a, b) == t:
                return (a, b)
    return None


def thm42_check(ext: CentralExtensionData) -> CriterionResult:
    """Every quotient element conjugate to its inverse lifts to one with the
    same property; false comes with the offending element."""
    g = ext.cover_group
    q = ext.quotient
    if not isinstance(q, QuotientGroup):
        raise PcError("lifting check needs the natural quotient form")
    for cls in conjugacy_classes(q):
        h = cls.rep
        if q.inv(h) not in cls.elements:
            continue
        ok = False
        for hl in q.preimages(h):
            if conjugate_to_inverse_witness(g, hl) is not None:
                ok = True
                break
        if not ok:
            ext.lifting_condition = False
            return CriterionResult(
                False, {"counterexample": q.element_str(h)}
            )
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
    std = standard_subgroups(group)
    commutators = commutator_values(group)
    entries: List[ExtensionSearchEntry] = []
    seen_fps = []
    for t in std.center_cap_derived.sorted_elements():
        if t == group.identity:
            continue
        if group.element_order(t) != 2 or t in commutators:
            continue
        sigma = subgroup(group, [t])
        q = QuotientGroup(group, sigma)
        ext = CentralExtensionData(
            cover_group=group,
            sigma=sigma,
            alpha=q.projection,
            quotient=q,
            sigma_in_derived=True,
            omega_disjoint=True,
        )
        fp = fingerprint(q)
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
