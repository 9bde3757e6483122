"""Schur covers by the tails method, H2 invariants, wedge machinery.

The cover of a pc-presented group is built by appending one formal central
tail per defining relation, collecting the standard overlap checks in the
extended presentation to get integral relations among the tails, and
reading the structure of the tail group off the Smith normal form.  The
torsion part is the Schur multiplier H_2(G; Z); killing the free part
yields a finite central extension whose kernel meets the derived subgroup
in a copy of H_2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .linalg import (
    Gf2Span,
    elementary_coordinates,
    gf2_kernel,
    iter_bits,
    smith_normal_form,
    transpose_masks,
)
from .pcgroup import (
    GroupHom,
    PcError,
    PcGroup,
    ScaleError,
    Subgroup,
    TailCollector,
    class_centralizers,
    derived_subgroup,
    subgroup,
    subquotient_invariants,
    trivial_subgroup,
)

COVER_ORDER_BOUND = 1 << 10
# The cover's derived subgroup, closed element by element, has |[G,G]| |H_2|
# elements, and its cost follows that count.  In-process on a 2-core machine:
# 2^15 (R(6,4) seed 604) 3.4 s; 2^16 (R(4,6) seed 1) 5.2 s at 177 MB; 2^17
# (R(4,6) seed 2, |H_2| = 2^12) 16.8 s at 535 MB; 2^18 (R(3,7) seed 3) 41 s at
# 1 GB; C2^7 (|H_2| = 2^21) 292 s at 642 MB.
COVER_DERIVED_BOUND = 1 << 16


@dataclass
class CoverData:
    """A central extension SC -> G whose kernel carries H_2(G; Z)."""

    group: PcGroup
    cover: PcGroup
    epi: GroupHom
    kernel: Subgroup
    stem_part: Subgroup
    h2_invariants: Tuple[int, ...]
    tail_images: Tuple[int, ...]  # relation tail index -> element of the cover


def schur_cover(group: PcGroup) -> CoverData:
    """Cover with central kernel meeting [SC,SC] in H_2(G; Z).

    Tails scale bounds: |G| <= 2^10, and |[G,G]| |H_2(G)| <= 2^16 with
    |H_2(G)| read off the Smith form, checked before the cover is built.
    """
    if group.order > COVER_ORDER_BOUND:
        raise ScaleError(
            f"schur_cover bound is |G| <= 2^10, got |G| = {group.order}"
        )
    tc = TailCollector(group)
    rows = tc.consistency_rows()
    m = tc.m
    if not rows:
        rows = [[0] * m]
    # the exponent of H_2 divides |G| (Schur), so mod 2|G| a zero is free
    diag, v, _vinv = smith_normal_form(rows, 2 * group.order)
    free = [j for j in range(m) if diag[j] == 0]
    if len(free) != group.n:
        raise PcError(
            "tails relation matrix has wrong free rank "
            f"({len(free)} != {group.n}); inconsistent input?"
        )
    torsion = [(j, d) for j, d in enumerate(diag) if d > 1]  # (column, order)
    derived_order = derived_subgroup(group).order * math.prod(d for _j, d in torsion)
    if derived_order > COVER_DERIVED_BOUND:
        raise ScaleError(
            f"schur_cover bound is |[G,G]| |H_2(G)| <= 2^16, "
            f"got 2^{derived_order.bit_length() - 1}"
        )
    n = group.n
    chain_pos: List[List[int]] = []
    pos = n
    for _col, d in torsion:
        k = d.bit_length() - 1
        chain_pos.append(list(range(pos, pos + k)))
        pos += k
    n_sc = pos

    def tail_elem(coords: Sequence[int]) -> int:
        bits = 0
        for (col, d), chain in zip(torsion, chain_pos):
            c = coords[col] % d
            for l in range(len(chain)):
                if c >> l & 1:
                    bits |= 1 << chain[l]
        return bits

    tail_images = tuple(tail_elem(v[r]) for r in range(m))

    powers = [0] * n_sc
    comms = [[0] * n_sc for _ in range(n_sc)]
    for i in range(n):
        powers[i] = group.powers[i] | tail_images[i]
        for j in range(i + 1, n):
            comms[i][j] = group.comms[i][j] | tail_images[tc.pair_index[(i, j)]]
    for chain in chain_pos:
        for l, p in enumerate(chain[:-1]):
            powers[p] = 1 << chain[l + 1]
    cover = PcGroup(f"Cover({group.name})", n_sc, powers, comms, validate=True)
    epi = GroupHom(cover, group, [1 << i for i in range(n)] + [0] * (n_sc - n))
    if not epi.is_surjective():
        raise PcError("cover projection is not surjective")
    kernel_gens = [1 << chain[0] for chain in chain_pos]
    kernel = subgroup(cover, kernel_gens)
    if kernel.order << n != cover.order or not kernel.is_central:
        raise PcError("cover kernel is not the expected central subgroup")
    der = derived_subgroup(cover)
    stem_elems = kernel.elements & der.elements
    stem = Subgroup(cover, sorted(stem_elems, key=cover.lexkey), stem_elems)
    h2 = subquotient_invariants(cover, stem, trivial_subgroup(cover))
    expected = tuple(sorted(d for _c, d in torsion))
    if h2 != expected:
        raise PcError(
            f"stem part invariants {h2} disagree with tail invariants {expected}"
        )
    return CoverData(
        group=group,
        cover=cover,
        epi=epi,
        kernel=kernel,
        stem_part=stem,
        h2_invariants=h2,
        tail_images=tail_images,
    )


def h2_integral(group: PcGroup, cover: Optional[CoverData] = None) -> Tuple[int, ...]:
    """Abelian invariants of H_2(G; Z) = invariants of the cover's stem part."""
    if cover is None:
        cover = schur_cover(group)
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

    Centrality also makes h -> [g~, h~] a homomorphism from C_G(g) into the
    kernel, and [g~^x, h~^x] = [g~, h~]; so the pairs (class representative,
    centralizer generator) of `class_centralizers` generate the same
    subgroup as all commuting pairs."""
    sc = cover.cover
    sub = subgroup(
        sc, (sc.comm(g, h) for g, gens in class_centralizers(group) for h in gens)
    )
    if not sub.elements <= cover.stem_part.elements:
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
    derived_basis: List[int]
    comm_matrix: List[int]         # per pair: derived coordinates as a bitmask
    kernel_basis: List[int]        # masks over pair indices
    _class_coord: Dict[int, int] = None

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
        """Coordinates of [g] in pi^ab along the factor basis."""
        return self._class_coord[g]

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
    """
    der = derived_subgroup(group)
    if not der.is_central:
        raise PcError("derived subgroup is not central")
    # classes modulo derived, coordinatized greedily over pc generator images
    gens = group.generators
    if any(group.square(g) not in der.elements for g in gens):
        raise PcError("abelianization is not elementary abelian")
    lifts, coord = elementary_coordinates(group.mult, der.elements, gens)
    if len(coord) != group.order:
        raise PcError("pc generator classes do not span the abelianization")
    r = len(lifts)
    pairs = [(i, j) for i in range(r) for j in range(i + 1, r)]
    basis, dcoord = elementary_coordinates(
        group.mult, [group.identity], der.sorted_elements()
    )
    comm_matrix = []
    for i, j in pairs:
        val = group.comm(lifts[i], lifts[j])
        if group.square(val) != group.identity:
            raise PcError("derived subgroup is not elementary abelian")
        comm_matrix.append(dcoord[val])
    kernel = gf2_kernel(transpose_masks(comm_matrix), len(pairs))
    return WedgeSpace(
        group=group,
        rank=r,
        factor_lifts=lifts,
        factor_labels=[gens.index(g) + 1 for g in lifts],
        pairs=pairs,
        derived_basis=basis,
        comm_matrix=comm_matrix,
        kernel_basis=sorted(kernel),
        _class_coord=coord,
    )


def commuting_wedge_span(group, wedge: WedgeSpace) -> Gf2Span:
    """GF(2) span of the wedges of classes of all commuting pairs.

    [g] ^ [h] is linear in h on C_G(g) and unchanged by conjugating both, so
    the pairs of `class_centralizers` span the same space (see
    `commuting_wedges`)."""
    span = Gf2Span()
    seen_pairs = set()
    for g, centralizer_gens in class_centralizers(group):
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
