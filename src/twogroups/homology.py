"""Schur covers by the tails method, H2 invariants, wedge machinery.

The cover of a pc-presented group is built by appending one formal central
tail per defining relation, collecting the standard overlap checks in the
extended presentation to get integral relations among the tails, and
reading the structure of the tail group off the Smith normal form.  The
torsion part is the Schur multiplier H_2(G; Z); killing the free part
yields a finite central extension whose kernel is a copy of H_2 inside the
derived subgroup (a stem cover), certified by comparing abelianizations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from .linalg import Gf2Span, gf2_kernel, iter_bits, smith_normal_form, transpose_masks
from .pcgroup import (
    GroupHom,
    PcError,
    PcGroup,
    ScaleError,
    Subgroup,
    abelian_invariants,
    abelianization,
    subgroup,
    subquotient_invariants,
    tails_rows,
    trivial_subgroup,
    wedge_pairs,
)

# cover_presentation: the tails matrix has about n^3/6 rows and n(n+1)/2
# columns, and the cover's consistency check and its abelianized Smith form
# grow with its generator count n + log2 |H_2(G)|; each is checked before
# the work it sizes.  In-process on one 2-vCPU core (tails rows; their Smith
# form): R(14,6) seed 1 (n = 20, 1,284 x 210) 0.17-0.21 s, 0.28-0.33 s;
# R(16,8) seed 1 (n = 24, 2,077 x 300) 0.55 s, 0.96 s; G16384 0.01 s,
# 0.02 s, and 0.14 s for the whole presentation.
TAILS_GENS_BOUND = 20
COVER_GENS_BOUND = 48
# schur_cover lists the cover and closes its kernel element by element: at
# |H_2| = 2^15, C2^6 took 1.2 s and R(3,7) seed 3 3.4 s at 100 MB; at 2^16,
# C2^4 x C4^2 took 9.6 s at 168 MB.
COVER_ORDER_BOUND = 1 << 10
COVER_KERNEL_BOUND = 1 << 15


@dataclass
class CoverPresentation:
    """A stem central extension K >-> SC ->> G with K = H_2(G; Z), as a pc
    presentation: the generators x_1..x_n of G, then one chain per cyclic
    factor Z/d of H_2, c_0, ..., c_{k-1} with c_l^2 = c_{l+1} and d = 2^k.
    Every relation of G gains the chain bits of its tail's image, so the
    chains are central, K is the subgroup of elements whose bits below n
    are zero, and the bits of chain j, read as a binary number, are the
    coordinate of a kernel element in Z/d_j.

    Certificate (`certificate_failure`): each chain's first generator
    commutes with x_1..x_n, so K is central with SC/K = G; then |SC^ab| =
    |G^ab| |K| / |K & [SC,SC]|, and |SC^ab| = |G^ab| holds exactly when K
    lies in [SC,SC]: the cover is stem.
    """

    group: PcGroup
    cover: PcGroup
    h2_invariants: Tuple[int, ...]           # ascending, one per chain
    chains: Tuple[Tuple[int, ...], ...]      # 0-based generator positions

    def kernel_coordinates(self, g: int) -> Tuple[int, ...]:
        """Coordinates in the sum of the Z/d_j of an element of K."""
        if g & (self.group.order - 1):
            raise PcError(f"{self.cover.element_str(g)} is not in the cover's kernel")
        return tuple(g >> c[0] & (d - 1) for c, d in zip(self.chains, self.h2_invariants))

    def wedge(self, g: int, h: int) -> Tuple[int, ...]:
        """Kernel coordinates of [g~, h~] for commuting g, h in G, with g~, h~
        the cover elements of the same bits: g~h~ = s k and h~g~ = s k' share
        the G-part s, and [g~, h~] = (h~g~)^-1 g~h~ = k - k'."""
        sc, g_part = self.cover, self.group.order - 1
        gh, hg = sc.mult(g, h), sc.mult(h, g)
        if (gh ^ hg) & g_part:
            raise PcError(
                f"{self.group.element_str(g)} and {self.group.element_str(h)} "
                "do not commute modulo the cover's kernel"
            )
        k = self.kernel_coordinates(gh & ~g_part)
        k_prime = self.kernel_coordinates(hg & ~g_part)
        return tuple((a - b) % d for a, b, d in zip(k, k_prime, self.h2_invariants))

    def certificate_failure(self) -> Optional[str]:
        sc, n = self.cover, self.group.n
        for c in (chain[0] for chain in self.chains):
            if any(sc.comm(1 << c, 1 << i) for i in range(n)):
                return f"chain generator x{c + 1} is not central"
        ab_cover = math.prod(abelian_invariants(self.cover))
        ab_group = math.prod(abelian_invariants(self.group))
        if ab_cover != ab_group:
            return f"|SC^ab| = {ab_cover} differs from |G^ab| = {ab_group}: not stem"
        return None


@dataclass
class CoverData(CoverPresentation):
    """The cover presentation with its projection, kernel and stem part
    materialized as element sets."""

    epi: GroupHom
    kernel: Subgroup
    stem_part: Subgroup


def cover_presentation(group: PcGroup) -> CoverPresentation:
    """The stem cover's pc presentation from the tails Smith form, checked
    for consistency and certified stem; no element of it is listed.

    Scale bounds: n <= TAILS_GENS_BOUND before the tails collection, and
    n + log2 |H_2(G)| <= COVER_GENS_BOUND before the cover is built.
    """
    n = group.n
    if n > TAILS_GENS_BOUND:
        raise ScaleError(
            f"cover_presentation bound is n <= {TAILS_GENS_BOUND} pc generators, got {n}"
        )
    m = n * (n + 1) // 2  # one tail per relation
    rows = tails_rows(group) or [[0] * m]
    # the exponent of H_2 divides |G| (Schur), so mod 2|G| a zero is free
    diag, v, _vinv = smith_normal_form(rows, 2 * group.order)
    free = [j for j in range(m) if diag[j] == 0]
    if len(free) != n:
        raise PcError(
            "tails relation matrix has wrong free rank "
            f"({len(free)} != {n}); inconsistent input?"
        )
    # (column, order); the diagonal is a divisibility chain, so ascending
    torsion = [(j, d) for j, d in enumerate(diag) if d > 1]
    n_sc = n + sum(d.bit_length() - 1 for _j, d in torsion)
    if n_sc > COVER_GENS_BOUND:
        raise ScaleError(
            f"cover_presentation bound is n + log2 |H_2(G)| <= {COVER_GENS_BOUND} "
            f"cover generators, got {n_sc}"
        )
    chains: List[Tuple[int, ...]] = []
    pos = n
    for _col, d in torsion:
        k = d.bit_length() - 1
        chains.append(tuple(range(pos, pos + k)))
        pos += k
    # a tail's coordinate in Z/d is written in binary along its chain
    tail_images = tuple(
        sum(v[r][col] % d << chain[0] for (col, d), chain in zip(torsion, chains))
        for r in range(m)
    )
    powers = [0] * n_sc
    comms = [[0] * n_sc for _ in range(n_sc)]
    pair_images = iter(tail_images[n:])
    for i in range(n):
        powers[i] = group.powers[i] | tail_images[i]
        for j in range(i + 1, n):
            comms[i][j] = group.comms[i][j] | next(pair_images)
    for chain in chains:
        for p, q in zip(chain, chain[1:]):
            powers[p] = 1 << q
    cover = PcGroup(f"Cover({group.name})", n_sc, powers, comms, validate=True)
    pres = CoverPresentation(
        group=group,
        cover=cover,
        h2_invariants=tuple(d for _col, d in torsion),
        chains=tuple(chains),
    )
    failure = pres.certificate_failure()
    if failure is not None:
        raise PcError(f"cover presentation: {failure}")
    return pres


def schur_cover(group: PcGroup) -> CoverData:
    """The stem cover of `cover_presentation` with its projection, kernel
    and stem part (the kernel) closed element by element.

    Scale bounds: |G| <= COVER_ORDER_BOUND, and |H_2(G)| <=
    COVER_KERNEL_BOUND checked before the kernel is closed.
    """
    if group.order > COVER_ORDER_BOUND:
        raise ScaleError(
            f"schur_cover bound is |G| <= 2^10, got |G| = {group.order}"
        )
    pres = cover_presentation(group)
    h2_order = math.prod(pres.h2_invariants)
    if h2_order > COVER_KERNEL_BOUND:
        raise ScaleError(
            f"schur_cover bound is |H_2(G)| <= 2^{COVER_KERNEL_BOUND.bit_length() - 1}, "
            f"got 2^{h2_order.bit_length() - 1}"
        )
    cover, n = pres.cover, group.n
    epi = GroupHom(cover, group, [1 << i for i in range(n)] + [0] * (cover.n - n))
    if not epi.is_surjective():
        raise PcError("cover projection is not surjective")
    kernel = subgroup(cover, [1 << chain[0] for chain in pres.chains])
    if kernel.order << n != cover.order or not kernel.is_central:
        raise PcError("cover kernel is not the expected central subgroup")
    h2 = subquotient_invariants(cover, kernel, trivial_subgroup(cover))
    if h2 != pres.h2_invariants:
        raise PcError(
            f"kernel invariants {h2} disagree with tail invariants {pres.h2_invariants}"
        )
    return CoverData(**vars(pres), epi=epi, kernel=kernel, stem_part=kernel)


def h2_integral(group: PcGroup, cover: Optional[CoverPresentation] = None) -> Tuple[int, ...]:
    """Abelian invariants of H_2(G; Z), read off the tails Smith form."""
    if cover is None:
        cover = cover_presentation(group)
    return cover.h2_invariants


def commuting_pairs(group) -> List[Tuple[int, int]]:
    """All ordered pairs (g, h) with gh = hg: the |G|^2 brute-force walk,
    kept only as the test oracle for `commuting_wedges` and
    `commuting_wedge_span`."""
    from .parallel import map_chunks

    elems = list(group.elements())
    identity = group.identity

    def scan(chunk):
        found = []
        for g in chunk:
            for h in elems:
                if group.comm(g, h) == identity:
                    found.append((g, h))
        return found

    out: List[Tuple[int, int]] = []
    for part in map_chunks(scan, elems):
        out.extend(part)
    return out


def commuting_wedges(group: PcGroup, cover: CoverData) -> Subgroup:
    """Subgroup of the stem part generated by commutators of lifts of
    commuting pairs; the lift choice is immaterial because the kernel is
    central: a group element lifts to the cover element with the same bits.

    Centrality also makes [g~, h~] additive in g and in h on commuting
    pairs, and [g~^x, h~^x] = [g~, h~]; so the pairs of `wedge_pairs`
    generate the same subgroup as all commuting pairs (`commuting_pairs`,
    the test oracle)."""
    sc = cover.cover
    sub = subgroup(sc, (sc.comm(g, h) for g, hs in wedge_pairs(group) for h in hs))
    if not all(s in cover.stem_part for s in sub.seq):
        raise PcError("commuting wedges escaped the stem part")
    return sub


@dataclass
class WedgeSpace:
    """H_2(pi^ab; Z) = Lambda^2 of an elementary abelian pi^ab over GF(2).

    The basis e_ij (i < j) is indexed by the classes of the pc generators
    whose images form a basis of pi^ab (taken in ascending generator order,
    so labels match the presentation); the commutator map sends e_ij to
    [g_i, g_j] in the derived subgroup.
    """

    group: object
    rank: int
    factor_lifts: List[int]        # group elements whose classes form the basis
    factor_labels: List[int]       # 1-based pc generator index per factor
    pairs: List[Tuple[int, int]]
    derived_basis: Tuple[int, ...]  # [G,G] as its induced pc sequence
    comm_matrix: List[int]         # per pair: `Subgroup.coordinates` in [G,G]
    kernel_basis: List[int]        # masks over pair indices
    gen_masks: List[int]           # class_mask of each pc generator x_i

    def pair_index(self, i: int, j: int) -> int:
        return self.pairs.index((i, j) if i < j else (j, i))

    def wedge_name(self, mask: int) -> str:
        if mask == 0:
            return "0"
        parts = []
        for k in iter_bits(mask):
            i, j = self.pairs[k]
            parts.append(f"e{self.factor_labels[i]}{self.factor_labels[j]}")
        return "+".join(parts)

    def class_mask(self, g: int) -> int:
        """Coordinates of [g] in pi^ab along the factor basis, linear in
        the exponent bits of g."""
        mask = 0
        for i in iter_bits(g):
            mask ^= self.gen_masks[i]
        return mask

    def wedge_of_classes(self, u: int, v: int) -> int:
        """Lambda^2 expansion of [u] wedge [v] for coordinate masks u, v."""
        out = 0
        for k, (i, j) in enumerate(self.pairs):
            if ((u >> i & 1) & (v >> j & 1)) ^ ((u >> j & 1) & (v >> i & 1)):
                out |= 1 << k
        return out


def wedge_space(group) -> WedgeSpace:
    """Wedge data for a group with elementary abelianization, central derived.

    kernel_basis spans the kernel of e_ij -> [g_i, g_j]; it equals the image
    of H_2(G;Z) in H_2(G^ab;Z) for such groups (five-term exact sequence).
    The [g_i, g_j] are read in `Subgroup.coordinates` of [G,G]; the kernel
    basis comes from a reduced echelon form, so no basis choice shows in it.
    """
    ab = abelianization(group)
    der = ab.derived
    if not der.is_central:
        raise PcError("derived subgroup is not central")
    if any(d != 2 for d in ab.invariants):
        raise PcError("abelianization is not elementary abelian")
    # the class of x_i is its Smith coordinate vector; the lifts are the
    # generators whose classes are new, in ascending order
    gens = group.generators
    classes = [ab.omega_bits(g) for g in gens]
    seen = Gf2Span()
    lift_index = [i for i, v in enumerate(classes) if seen.add(v)]
    r = len(lift_index)
    if r != len(ab.invariants):
        raise PcError("pc generator classes do not span the abelianization")
    lifts = [gens[i] for i in lift_index]
    lift_span = Gf2Span(classes[i] for i in lift_index)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    comm_matrix = []
    for i, j in pairs:
        val = group.comm(lifts[i], lifts[j])
        if group.square(val) != group.identity:
            raise PcError("derived subgroup is not elementary abelian")
        comm_matrix.append(der.coordinates(val))
    kernel = gf2_kernel(transpose_masks(comm_matrix), len(pairs))
    return WedgeSpace(
        group=group,
        rank=r,
        factor_lifts=lifts,
        factor_labels=[i + 1 for i in lift_index],
        pairs=pairs,
        derived_basis=der.seq,
        comm_matrix=comm_matrix,
        kernel_basis=sorted(kernel),
        gen_masks=[lift_span.solve(v) for v in classes],
    )


def commuting_wedge_span(group, wedge: WedgeSpace) -> Gf2Span:
    """GF(2) span of the wedges of classes of all commuting pairs.

    [g] ^ [h] is bilinear, so the pairs of `wedge_pairs` span the same
    space."""
    span = Gf2Span()
    seen_pairs = set()
    for g, centralizer_gens in wedge_pairs(group):
        u = wedge.class_mask(g)
        for h in centralizer_gens:
            v = wedge.class_mask(h)
            if (u, v) in seen_pairs:
                continue
            seen_pairs.add((u, v))
            w = wedge.wedge_of_classes(u, v)
            if w:
                span.add(w)
    return span
