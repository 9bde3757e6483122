"""Lyndon-Hochschild-Serre E_2/E_3 data for central elementary abelian
extensions V >-> G ->> W with W elementary abelian, and degree-4 survival.

The transgression of the dual coordinate of the i-th V-basis vector reads
off the quadratic part of the presentation: squares contribute X_a^2 and
commutators contribute X_a X_b.  The page-3 differential on squares is the
Kudo transgression d_3(zeta^2) = Sq^1(d_2(zeta)).  The edge-kernel ideal is
approximated by the d_2 values together with their Sq^1 images, which is
why survival verdicts carry the page-4 qualifier.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from .f2poly import DegreeSlice, F2Poly, MembershipCertificate, degree_membership, sq1
from .linalg import Gf2Span, gf2_kernel, iter_bits, transpose_masks
from .pcgroup import PcGroup, Subgroup, frattini_subgroup, subgroup


class LhsError(ValueError):
    pass


@dataclass
class LhsData:
    """d2/d3 tables for one central extension, plus the closed ideal data."""

    group: object
    v_subgroup: Subgroup
    v_basis: List[int]            # V basis elements (single pc generators when possible)
    v_labels: List[int]           # 1-based generator index naming each zeta
    w_gens: List[int]             # pc generators mapping to a basis of W
    w_labels: List[int]           # 1-based generator index naming each X
    variables: Tuple[str, ...]
    d2: Dict[int, F2Poly]         # zeta label -> degree-2 polynomial
    d3_raw: Dict[int, F2Poly]     # zeta label -> Sq1(d2) before reduction
    d3: Dict[int, F2Poly]         # zeta label -> Sq1(d2) reduced mod I2 (degree 3)
    ideal_gens: List[F2Poly]      # d2 values
    ideal_closed: List[F2Poly]    # d2 values plus nonzero Sq1 images

    def w_coordinates(self, g: int) -> int:
        """The image of g in W = G/V over the images of w_gens: its exponent
        bits at the generators outside V, since d2_table checked that those
        map to a basis of W and the others lie in V."""
        return sum(1 << k for k, w in enumerate(self.w_gens) if g & w)

    def poly(self, text: str) -> F2Poly:
        from .f2poly import parse_poly

        return parse_poly(text, self.variables)

    def as_dict(self) -> Dict:
        return {
            "V": [self.group.element_str(b) for b in self.v_basis],
            "W": [f"x{l}" for l in self.w_labels],
            "d2": {f"zeta{l}": str(self.d2[l]) for l in self.v_labels},
            "d3": {f"zeta{l}^2": str(self.d3[l]) for l in self.v_labels},
        }


def _reduce_mod(gens: Sequence[F2Poly], f: F2Poly, d: int) -> F2Poly:
    """Canonical residue of f modulo the degree-d slice of the ideal <gens>."""
    if f.is_zero():
        return f
    return DegreeSlice(gens, d, f.vars).reduce(f)


def d2_table(group, v_subgroup: Subgroup) -> LhsData:
    """Transgression table read off the pc presentation.

    Preconditions (checked): V central elementary abelian, G/V elementary
    abelian, and the pc generators outside V map onto a basis of G/V while
    those inside V give a basis of V.
    """
    if not isinstance(group, PcGroup):
        raise LhsError("LHS tables need a pc-presented group")
    if not v_subgroup.is_central:
        raise LhsError("V is not central")
    # central, so abelian: elementary when its members square to 1
    if any(group.square(v) != group.identity for v in v_subgroup.seq):
        raise LhsError("V is not elementary abelian")
    in_v = [i for i in range(group.n) if (1 << i) in v_subgroup]
    out_v = [i for i in range(group.n) if (1 << i) not in v_subgroup]
    if (1 << len(in_v)) != v_subgroup.order:
        raise LhsError("V is not spanned by pc generators")
    for i in out_v:
        if group.square(1 << i) not in v_subgroup:
            raise LhsError("G/V is not elementary abelian")
        for j in out_v:
            if i < j and group.comms[i][j] not in v_subgroup:
                raise LhsError("G/V is not abelian")
    # coordinates over the pc generators in V, its induced pc sequence
    v_coords = Subgroup(group, (), [1 << i for i in in_v]).coordinates

    variables = tuple(f"X{i + 1}" for i in out_v)
    var_of = {i: k for k, i in enumerate(out_v)}

    def mono(*pairs) -> F2Poly:
        m = [0] * len(variables)
        for i, e in pairs:
            m[var_of[i]] += e
        return F2Poly(variables, [tuple(m)])

    d2: Dict[int, F2Poly] = {}
    for k, vb in enumerate(in_v):
        label = vb + 1
        acc = F2Poly.zero(variables)
        for a in out_v:
            if v_coords(group.powers[a]) >> k & 1:
                acc = acc + mono((a, 2))
        for ai in range(len(out_v)):
            for bi in range(ai + 1, len(out_v)):
                a, b = out_v[ai], out_v[bi]
                if v_coords(group.comms[a][b]) >> k & 1:
                    acc = acc + mono((a, 1), (b, 1))
        d2[label] = acc
    ideal_gens = [d2[vb + 1] for vb in in_v]
    d3_raw = {vb + 1: sq1(d2[vb + 1]) for vb in in_v}
    d3 = {
        label: _reduce_mod(ideal_gens, val, 3) for label, val in d3_raw.items()
    }
    closed = list(ideal_gens) + [p for p in d3_raw.values() if not p.is_zero()]
    return LhsData(
        group=group,
        v_subgroup=v_subgroup,
        v_basis=[1 << i for i in in_v],
        v_labels=[i + 1 for i in in_v],
        w_gens=[1 << i for i in out_v],
        w_labels=[i + 1 for i in out_v],
        variables=variables,
        d2=d2,
        d3_raw=d3_raw,
        d3=d3,
        ideal_gens=ideal_gens,
        ideal_closed=closed,
    )


def lhs_data_for(group: PcGroup) -> LhsData:
    """LHS data over the Frattini subgroup (checked to be central)."""
    return d2_table(group, frattini_subgroup(group))


@dataclass
class SurvivalVerdict:
    poly: F2Poly
    verdict: str  # "survives_page4" | "dies" | "undecided"
    certificate: Optional[MembershipCertificate]

    def as_dict(self) -> Dict:
        out = {"class": str(self.poly), "verdict": self.verdict}
        if self.certificate is not None:
            out["certificate"] = self.certificate.as_dict()
        return out


def survives_deg4(data: LhsData, f: F2Poly) -> SurvivalVerdict:
    """Page-4 survival of a degree-4 class of the base of the fibration.

    "dies" carries a verified membership certificate in the ideal generated
    by the d2 values and their Kudo images; "survives_page4" means the
    class is nonzero through the page-3 approximation of the edge kernel.
    """
    if f.is_zero():
        cert = degree_membership(f, data.ideal_closed, 4)
        return SurvivalVerdict(f, "dies", cert)
    if not f.is_homogeneous() or f.degree() != 4:
        raise LhsError("survival is defined for homogeneous degree-4 classes")
    cert = degree_membership(f, data.ideal_closed, 4)
    if cert.member:
        return SurvivalVerdict(f, "dies", cert)
    return SurvivalVerdict(f, "survives_page4", cert)


def dead_quartic_subspace(data: LhsData) -> Tuple[List[int], List[F2Poly]]:
    """Vectors c with sum c_a X_a^4 in the closed ideal (degree 4).

    Returns (masks over W-variable indices, the corresponding polynomials).
    """
    dslice = DegreeSlice(data.ideal_closed, 4, data.variables)
    quartics = [F2Poly.var(data.variables, x) ** 4 for x in data.variables]
    residues = [dslice.span.reduce(dslice.vector(p)) for p in quartics]
    # kernel of c -> XOR of the residues over the set bits of c
    dead_masks = sorted(gf2_kernel(transpose_masks(residues), len(residues)))
    dead_polys = []
    for mask in dead_masks:
        acc = F2Poly.zero(data.variables)
        for a in iter_bits(mask):
            acc = acc + quartics[a]
        dead_polys.append(acc)
    return dead_masks, dead_polys


@dataclass
class TowerClassRep:
    theta: F2Poly
    sigma_component: Dict[str, int]
    complement: List[str]

    def as_dict(self) -> Dict:
        return {
            "theta": str(self.theta),
            "complement": self.complement,
        }


def extension_class_rep(ext, base_data: Optional[LhsData] = None) -> TowerClassRep:
    """Quadratic representative of the class of sigma >-> G~ ->> G.

    The cover's Frattini subgroup V~ must be central elementary abelian and
    contain sigma; a complement of sigma in V~ is chosen deterministically
    (kernel of the first nonzero coordinate of t in the greedy V~ basis),
    and theta picks up X_a X_b for each commutator and X_a^2 for each
    square whose sigma-component is nonzero.  Variables are expressed
    through the images of the cover's generators in the base.
    """
    cover = ext.cover_group
    if not isinstance(cover, PcGroup):
        raise LhsError("extension class needs a pc-presented cover")
    t = ext.t
    frat = frattini_subgroup(cover)
    vt = subgroup(cover, list(frat.gens) + [t])
    if not vt.is_central:
        raise LhsError("V~ = <Frattini, sigma> is not central")
    if any(cover.square(v) != cover.identity for v in vt.seq):
        raise LhsError("V~ is not elementary abelian")
    # greedy basis of V~ preferring single pc generators, ascending, in the
    # linear `Subgroup.coordinates` of V~; `solve` reads coordinates in it
    candidates = [g for g in cover.generators if g in vt]
    candidates += [g for g in vt.sorted_elements() if g not in candidates]
    span, basis = Gf2Span(), []
    for g in candidates:
        v = vt.coordinates(g)
        if not span.contains(v):
            span.add(v)
            basis.append(g)
    # complement = kernel of the coordinate of the last basis vector in the
    # support of t, so early generators stay inside the complement
    pivot = span.solve(vt.coordinates(t)).bit_length() - 1

    def sigma_comp(elem: int) -> int:
        return span.solve(vt.coordinates(elem)) >> pivot & 1

    complement = [cover.element_str(b) for k, b in enumerate(basis) if k != pivot]
    # W-variables of the base: classes of the images of the cover generators
    alpha = ext.alpha
    base_lhs = base_data if base_data is not None else lhs_data_for(ext.quotient)
    variables = base_lhs.variables

    def linear_form(elem_of_base: int) -> F2Poly:
        acc = F2Poly.zero(variables)
        for k in iter_bits(base_lhs.w_coordinates(elem_of_base)):
            acc = acc + F2Poly.var(variables, variables[k])
        return acc

    out_gens = [1 << i for i in range(cover.n) if (1 << i) not in vt]
    theta = F2Poly.zero(variables)
    comps: Dict[str, int] = {}
    for a in out_gens:
        c = sigma_comp(cover.square(a))
        comps[f"{cover.element_str(a)}^2"] = c
        if c:
            la = linear_form(alpha(a))
            theta = theta + la * la
    for ai in range(len(out_gens)):
        for bi in range(ai + 1, len(out_gens)):
            a, b = out_gens[ai], out_gens[bi]
            c = sigma_comp(cover.comm(a, b))
            comps[f"[{cover.element_str(a)},{cover.element_str(b)}]"] = c
            if c:
                theta = theta + linear_form(alpha(a)) * linear_form(alpha(b))
    return TowerClassRep(theta=theta, sigma_component=comps, complement=complement)
