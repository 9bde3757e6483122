"""Oozing detectors: the coboundary delta, adapted decompositions, the
lambda_4 = delta o beta o s_* detector, compatible-pair certification, and
the cyclic-quotient parity scanner.

beta and s_* are never computed directly.  The detector goes through the
cyclic-quotient reductions: a first-factor projection p with delta(v_1)
nonzero and C_1 of order two turns survival of the fourth power of the
projection's linear form into lambda_4 != 0, while the annihilator of the
dead pure-quartic subspace computes the image of beta o s_* for groups
with exponent-two abelianization, giving sound "zero" verdicts.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from .f2poly import F2Poly, sq1
from .linalg import Gf2Span, gf2_kernel, gf2_rref, iter_bits, transpose_masks
from .pcgroup import (
    Abelianization,
    PcError,
    PcGroup,
    abelianization,
    conjugacy_classes,
    frattini_generators,
)
from .ktheory import (
    CentralExtensionData,
    WhPrimeData,
    h1_wh_prime,
    sk1,
    thm41_check,
    thm42_check,
)
from .homology import (
    ScaleError,
    commuting_wedge_span,
    wedge_space,
)
from .lhs import (
    LhsError,
    _reduce_mod,
    dead_quartic_subspace,
    extension_class_rep,
    lhs_data_for,
    survives_deg4,
)


class OozeError(ValueError):
    pass


# conj62 evaluates each surjective coefficient tuple on every element of
# pi^ab at most once; about 2^24 such steps took 3.3 s on one 2-vCPU core
# (C4^6: 4,032 tuples x 4,096), G16384 (1,920 x 2,048) took 1.0 s.
CONJ62_BOUND = 1 << 24


# -- delta -----------------------------------------------------------------


@dataclass
class DeltaMap:
    """The surjection from the order-<=2 part of pi^ab onto H^1(Wh').

    In the coordinates of `Abelianization.omega_bits`, v_j is e_j.  The
    span holds the vectors of C's generators, then each e_j new modulo
    them; bit k of delta(g) is the k-th such e_j in the solution for g."""

    group: object
    wh: WhPrimeData
    ab: Abelianization
    h0_reps: List[int]       # representatives in G of the basis v_1..v_n of H^0
    span: Gf2Span = field(repr=False)
    image_rows: List[int] = field(repr=False)  # insertion index of each new e_j
    matrix: List[int] = field(init=False)        # delta(v_j) in image coordinates
    rank: int = field(init=False)
    kernel_basis: List[int] = field(init=False)  # masks over the v-index space

    def __post_init__(self) -> None:
        self.matrix = [self.value(v) for v in self.h0_reps]
        self.rank = Gf2Span(self.matrix).rank
        self.kernel_basis = sorted(gf2_kernel(transpose_masks(self.matrix), len(self.matrix)))

    def value(self, g: int) -> int:
        """delta of an order-<=2 class given by a representative in S."""
        bits = self.ab.omega_bits(g)
        if bits is None:
            raise OozeError("element does not lie in S")
        combo = self.span.solve(bits)
        return sum(1 << k for k, row in enumerate(self.image_rows) if combo >> row & 1)

    def as_dict(self) -> Dict:
        g = self.group
        return {
            "h0_basis": [g.element_str(r) for r in self.h0_reps],
            "matrix": [
                {"v": g.element_str(r), "delta": m}
                for r, m in zip(self.h0_reps, self.matrix)
            ],
            "rank": self.rank,
            "kernel_dim": len(self.kernel_basis),
        }


def delta_map(group, ab: Optional[Abelianization] = None,
              wh: Optional[WhPrimeData] = None) -> DeltaMap:
    """Matrix of delta on the associated basis of H^0(pi^ab), with kernel.

    delta(v) is the class of (a representative of) v in S/C; it vanishes
    exactly when the representative lies in C.
    """
    if ab is None:
        ab = abelianization(group)
    if wh is None:
        wh = h1_wh_prime(group)
    # least elements of the [G,G]-cosets of the order-two elements v_j
    reps = [
        ab.derived.sift(group.power(g, m // 2)) for m, g in zip(ab.invariants, ab.factor_gens)
    ]
    c_gens = wh.c_subgroup.gens
    span = Gf2Span(ab.omega_bits(c) for c in c_gens)
    image_rows = [len(c_gens) + j for j in range(len(reps)) if span.add(1 << j)]
    dmap = DeltaMap(group=group, wh=wh, ab=ab, h0_reps=reps, span=span, image_rows=image_rows)
    if dmap.rank != wh.rank:
        raise OozeError(
            f"delta is not surjective: matrix rank {dmap.rank} != H^1 rank {wh.rank}"
        )
    return dmap


# -- adapted decompositions ---------------------------------------------------


@dataclass
class AdaptedDecomposition:
    """Internal direct sum of pi^ab aligned with ker(delta) (conditions of
    the row-echelon construction re-verified after building)."""

    group: object
    ab: Abelianization
    orders: List[int]          # descending
    factor_gens: List[int]     # least elements of their [G,G]-cosets
    v_elems: List[int]         # order-two element of each factor
    k: int                     # delta(v_1..v_k) is a basis of H^1(Wh')
    delta: DeltaMap
    basis: Abelianization      # the same factors, with their coordinates

    def as_dict(self) -> Dict:
        g = self.group
        return {
            "orders": self.orders,
            "factors": [g.element_str(x) for x in self.factor_gens],
            "k": self.k,
        }


def adapted_decomposition(group, dmap: Optional[DeltaMap] = None) -> AdaptedDecomposition:
    """Row-echelon plus column-operation construction of an adapted basis.

    Requires H^1(Wh') != 0.  Postconditions re-verified: the first k deltas
    form a basis of the image and the remaining v's span the kernel.
    """
    if dmap is None:
        dmap = delta_map(group)
    if dmap.rank == 0:
        raise OozeError("adapted decomposition requires H^1(Wh') != 0")
    ab = dmap.ab
    # descending orders; funcs[j] lists the j-th coordinate of each x_i
    desc = sorted(range(len(ab.invariants)), key=lambda j: -ab.invariants[j])
    orders = [ab.invariants[j] for j in desc]
    gens = [ab.factor_gens[j] for j in desc]
    funcs = [[row[j] for row in ab.gen_coords] for j in desc]

    # row reduce the matrix whose (i, j) entry is bit i of delta(v_j)
    reduced = gf2_rref(transpose_masks([dmap.matrix[j] for j in desc]))
    first = [(row & -row).bit_length() - 1 for row in reduced]
    # clear non-pivot entries with column operations col_j += col_p (p < j)
    for row, pc in zip(reduced, first):
        for j in iter_bits(row):
            if j == pc:
                continue
            # g_j := g_j * g_pc^r with r = m_pc / m_j, valid because pc < j in
            # the descending-order listing (pivot order is at least m_j); the
            # dual coordinate changes by the inverse, f_pc -= r * f_j
            if orders[pc] < orders[j]:
                raise OozeError("column operation violates the order constraint")
            r = orders[pc] // orders[j]
            gens[j] = group.mult(gens[j], group.power(gens[pc], r))
            funcs[pc] = [(a - r * b) % orders[pc] for a, b in zip(funcs[pc], funcs[j])]
    # reorder: pivot columns first, by their pivot row, then the rest
    rest = [j for j in range(len(gens)) if j not in first]
    perm = first + rest
    orders = [orders[j] for j in perm]
    gens = [gens[j] for j in perm]
    der = ab.derived
    factor_gens = [der.sift(g) for g in gens]
    dec = AdaptedDecomposition(
        group=group,
        ab=ab,
        orders=orders,
        factor_gens=factor_gens,
        v_elems=[der.sift(group.power(g, m // 2)) for g, m in zip(gens, orders)],
        k=len(first),
        delta=dmap,
        basis=Abelianization(
            group, ab.derived, tuple(orders), tuple(factor_gens),
            tuple(zip(*(funcs[j] for j in perm))),
        ),
    )
    _verify_adapted(dec)
    return dec


def _verify_adapted(dec: AdaptedDecomposition) -> None:
    failure = dec.basis.certificate_failure()
    if failure is not None:
        raise OozeError(f"adapted decomposition: {failure}")
    span = Gf2Span()
    for j in range(dec.k):
        val = dec.delta.value(dec.v_elems[j])
        if val == 0 or not span.add(val):
            raise OozeError("delta values of the first k factors are dependent")
    if span.rank != dec.delta.rank:
        raise OozeError("first k deltas do not span H^1(Wh')")
    for j in range(dec.k, len(dec.orders)):
        if dec.delta.value(dec.v_elems[j]) != 0:
            raise OozeError("tail factor v is not in ker(delta)")


# -- lambda_4 ------------------------------------------------------------------


@dataclass
class Lambda4Report:
    verdict: str  # "nonzero" | "zero" | "undecided"
    reasons: List[str]
    certificate: Optional[Dict] = None

    def as_dict(self) -> Dict:
        out = {"verdict": self.verdict, "reasons": self.reasons}
        if self.certificate is not None:
            out["certificate"] = self.certificate
        return out


def _parity_kernel_generators(n: int, mask: int) -> List[int]:
    """Generators of N = {g : g & mask has even parity}, the kernel of a
    certified linear coordinate mod 2, so a subgroup of index 2; they are
    the ones `subgroup` keeps when it closes the lexicographically sorted
    elements of N.  That closure keeps, for each x_b from x_n down to x_1,
    the least element of N whose first nonzero exponent is at b, since
    |N & G_b : N & G_(b+1)| <= 2.  With top the highest bit of the mask,
    that is x_b for b outside the mask, x_b x_top for b < top in it, and
    none for b = top."""
    top = mask.bit_length() - 1
    return [1 << b | (mask >> b & 1) << top for b in reversed(range(n)) if b != top]


def lambda4_detect(group: PcGroup) -> Lambda4Report:
    """Nonzero / zero / undecided verdict for delta o beta o s_*.

    "nonzero" always carries a verified page-4 survival certificate plus a
    verified delta(v_1) != 0; "zero" is sound (rank-0 H^1(Wh'), or the
    annihilator of the dead quartics lands in ker delta)."""
    wh = h1_wh_prime(group)
    if wh.rank == 0:
        return Lambda4Report(
            verdict="zero",
            reasons=["H^1(Wh'(Z2^G)) = 0, so the composite through it vanishes"],
        )
    reasons: List[str] = []
    try:
        lhs = lhs_data_for(group)
    except LhsError as exc:
        lhs = None
        reasons.append(f"not LHS-computable over the Frattini subgroup: {exc}")
    ab = abelianization(group)
    dmap = delta_map(group, ab=ab, wh=wh)
    exponent_two = all(m == 2 for m in ab.invariants)
    if lhs is not None and exponent_two:
        dead_masks, dead_polys = dead_quartic_subspace(lhs)
        ann = gf2_kernel(dead_masks, len(lhs.variables))
        all_killed = True
        ann_report = []
        for u in ann:
            rep = group.identity
            for a in iter_bits(u):
                rep = group.mult(rep, lhs.w_gens[a])
            nonzero = dmap.value(rep) != 0
            ann_report.append(
                {
                    "class": "+".join(f"[x{lhs.w_labels[a]}]" for a in iter_bits(u)),
                    "delta_nonzero": nonzero,
                }
            )
            if nonzero:
                all_killed = False
        if all_killed:
            return Lambda4Report(
                verdict="zero",
                reasons=[
                    "image of beta o s_* (annihilator of the dead quartic "
                    "subspace) lies in ker(delta)"
                ],
                certificate={
                    "dead_quartics": [str(p) for p in dead_polys],
                    "beta_s_image": ann_report,
                },
            )
        reasons.append("beta o s_* has image outside ker(delta); seeking a certificate")
    try:
        dec = adapted_decomposition(group, dmap)
    except OozeError as exc:
        reasons.append(f"no adapted decomposition: {exc}")
        return Lambda4Report(verdict="undecided", reasons=reasons)
    saw_order_ge4 = False
    if lhs is None:
        return Lambda4Report(verdict="undecided", reasons=reasons)
    for i in range(dec.k):
        if dec.orders[i] != 2:
            saw_order_ge4 = True
            continue
        # the i-th coordinate mod 2 is the parity of g & mask
        mask = sum((row[i] & 1) << b for b, row in enumerate(dec.basis.gen_coords))
        # linear form of the i-th factor projection in the W variables
        lform = F2Poly.zero(lhs.variables)
        func_bits = []
        for a, gen in enumerate(lhs.w_gens):
            c = (gen & mask).bit_count() & 1
            func_bits.append(c)
            if c:
                lform = lform + F2Poly.var(lhs.variables, lhs.variables[a])
        if lform.is_zero():
            continue
        quartic = lform ** 4
        verdict = survives_deg4(lhs, quartic)
        if verdict.verdict != "survives_page4":
            reasons.append(
                f"factor {i + 1}: {quartic} dies by page 4"
            )
            continue
        v1 = dec.v_elems[i]
        if dmap.value(v1) == 0:
            raise OozeError("certificate factor has delta(v_1) = 0")
        cert = {
            "factor_index": i + 1,
            "projection_functional": {
                f"x{lhs.w_labels[a]}": c for a, c in enumerate(func_bits)
            },
            "v1": group.element_str(v1),
            "kernel_order": group.order // 2,
            "kernel_generators": [
                group.element_str(x) for x in _parity_kernel_generators(group.n, mask)
            ],
            "survivor": str(quartic),
            "survival": verdict.as_dict(),
        }
        return Lambda4Report(
            verdict="nonzero",
            reasons=["cyclic-quotient certificate found"] + reasons,
            certificate=cert,
        )
    if saw_order_ge4:
        reasons.append(
            "remaining candidate factors have order >= 4 (open conjecture territory)"
        )
    return Lambda4Report(verdict="undecided", reasons=reasons)


# -- compatible pairs -----------------------------------------------------------


@dataclass
class ConditionResult:
    name: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: Dict

    def as_dict(self) -> Dict:
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass
class CompatiblePairReport:
    verdict: str  # "compatible" | "incompatible" | "inconclusive"
    conditions: List[ConditionResult]

    def as_dict(self) -> Dict:
        return {
            "verdict": self.verdict,
            "conditions": [c.as_dict() for c in self.conditions],
        }


def compatible_pair_check(
    group: PcGroup,
    ext: CentralExtensionData,
    theta: F2Poly,
    z: F2Poly,
) -> CompatiblePairReport:
    """The seven verifiable conditions for (pi, theta) with witness trail."""
    if ext.alpha.target is not group:
        raise OozeError(
            "the extension must be given as a verified surjection onto the "
            "base group (its quotient encodes elements differently)"
        )
    for label, poly in [("theta", theta), ("z", z)]:
        if poly and (not poly.is_homogeneous() or poly.degree() != 2):
            raise OozeError(f"{label} must be homogeneous of degree 2 (or zero)")
    conditions: List[ConditionResult] = []

    def add(name: str, status: str, **detail) -> None:
        conditions.append(ConditionResult(name, status, detail))

    # (i) exponent-two abelianization
    ab = abelianization(group)
    if all(m == 2 for m in ab.invariants):
        add("i_abelianization_exponent_two", "pass", invariants=list(ab.invariants))
    else:
        add("i_abelianization_exponent_two", "fail", invariants=list(ab.invariants))

    # (ii) sigma central order two inside [cover, cover], theta matches the
    # extension class modulo I2
    lhs = lhs_data_for(group)
    cover = ext.cover_group
    t = ext.t
    in_derived = ext.sigma_in_derived
    try:
        rep = extension_class_rep(ext, lhs)
        diff = rep.theta + theta
        matches = _reduce_mod(lhs.ideal_gens, diff, 2).is_zero() if not diff.is_zero() else True
        theta_detail = {"computed": str(rep.theta), "given": str(theta)}
    except LhsError as exc:
        rep = None
        matches = False
        theta_detail = {"error": str(exc)}
    if in_derived and matches:
        add("ii_cover_class_matches_theta", "pass", **theta_detail)
    else:
        add(
            "ii_cover_class_matches_theta",
            "fail",
            sigma_in_derived=in_derived,
            **theta_detail,
        )

    # (iii) H^1(Wh') of the cover vanishes
    wh_cover = h1_wh_prime(cover)
    add(
        "iii_cover_wh_prime_rank_zero",
        "pass" if wh_cover.rank == 0 else "fail",
        rank=wh_cover.rank,
    )

    # (iv) sigma-not-a-commutator criterion plus SK1(pi) = Z/2
    r41 = thm41_check(ext)
    sk = sk1(group)
    if r41.holds and sk.invariants == (2,):
        add("iv_sk1_nonzero_cover_map_zero", "pass", sk1=list(sk.invariants))
    elif r41.holds and sk.order > 2:
        add(
            "iv_sk1_nonzero_cover_map_zero",
            "inconclusive",
            sk1=list(sk.invariants),
            note="non-surjectivity only implies a zero map for Z/2 targets",
        )
    else:
        add(
            "iv_sk1_nonzero_cover_map_zero",
            "fail",
            thm41=r41.holds,
            sk1=list(sk.invariants),
        )

    # (v) lifting criterion plus H^1(SK1) = Z/2
    r42 = thm42_check(ext)
    h1_sk1_rank = len(sk.invariants)
    if r42.holds and h1_sk1_rank == 1:
        add("v_boundary_injective", "pass", h1_sk1_rank=h1_sk1_rank)
    elif r42.holds and h1_sk1_rank > 1:
        add("v_boundary_injective", "inconclusive", h1_sk1_rank=h1_sk1_rank)
    else:
        add("v_boundary_injective", "fail", thm42=r42.holds, h1_sk1_rank=h1_sk1_rank)

    # (vi) theta*z survives page 4; Sq1(z) nonzero through page 3; H2 exponent 2
    tz = theta * z
    surv = survives_deg4(lhs, tz)
    sq1z = _reduce_mod(lhs.ideal_closed, sq1(z), 3)
    h2 = sk.cover.h2_invariants
    h2_exp_two = all(d == 2 for d in h2)
    if surv.verdict == "survives_page4" and not sq1z.is_zero() and h2_exp_two:
        add(
            "vi_cap_class_integral",
            "pass",
            theta_z=str(tz),
            sq1_z_reduced=str(sq1z),
            h2=list(h2),
        )
    else:
        status = "fail" if (surv.verdict == "dies" or not h2_exp_two) else "inconclusive"
        add(
            "vi_cap_class_integral",
            status,
            theta_z_verdict=surv.verdict,
            sq1_z_reduced=str(sq1z),
            h2=list(h2),
        )

    # (vii) z vanishes on (commuting wedges) ∩ (ganea kernel)
    try:
        ws = wedge_space(group)
        # the commutator map kills the wedge of a commuting pair, so the
        # commuting wedges already lie in its kernel
        inter = commuting_wedge_span(group, ws).basis()
        if not all(map(Gf2Span(ws.kernel_basis).contains, inter)):
            raise PcError("a commuting wedge lies outside the commutator kernel")
        zbar = _wedge_functional(ws, z)
        bad = [m for m in inter if (zbar & m).bit_count() & 1]
        if not bad:
            add(
                "vii_z_kills_commuting_wedges",
                "pass",
                intersection=[ws.wedge_name(m) for m in inter],
            )
        else:
            add(
                "vii_z_kills_commuting_wedges",
                "inconclusive",
                violating=[ws.wedge_name(m) for m in bad],
                note="sufficient test failed; omega membership undecided",
            )
    except PcError as exc:
        add("vii_z_kills_commuting_wedges", "inconclusive", error=str(exc))

    statuses = [c.status for c in conditions]
    if all(s == "pass" for s in statuses):
        verdict = "compatible"
    elif any(s == "fail" for s in statuses):
        verdict = "incompatible"
    else:
        verdict = "inconclusive"
    return CompatiblePairReport(verdict=verdict, conditions=conditions)


def _wedge_functional(ws, z: F2Poly) -> int:
    """Pairing mask of a quadratic class against the e_ij basis."""
    mask = 0
    label_pos = {l: idx for idx, l in enumerate(ws.factor_labels)}
    for m in z.monomials:
        support = [i for i, e in enumerate(m) if e]
        if len(support) != 2:
            continue  # squares pair trivially with the product basis
        # variable names X<label>; recover labels
        la = int(str(z.vars[support[0]])[1:])
        lb = int(str(z.vars[support[1]])[1:])
        if la in label_pos and lb in label_pos:
            k = ws.pair_index(label_pos[la], label_pos[lb])
            mask |= 1 << k
    return mask


# -- cyclic-quotient parity scanner ------------------------------------------------


@dataclass
class ConjectureSequence:
    """N < T <= W < G with G/N cyclic of order >= 4, |T/N| = 2, |G/W| = 2."""

    group: object
    n_order: int
    t_order: int
    w_order: int
    cyclic_order: int
    class_count: int
    parity: str  # "odd" | "even"
    homological_filters_applied: bool = False

    def as_dict(self) -> Dict:
        return {
            "N_order": self.n_order,
            "T_order": self.t_order,
            "W_order": self.w_order,
            "cyclic_quotient_order": self.cyclic_order,
            "classes_in_T_minus_N": self.class_count,
            "parity": self.parity,
            "homological_filters_applied": self.homological_filters_applied,
        }


def conjecture62_scan(group) -> List[ConjectureSequence]:
    """All cyclic quotients of order >= 4 with their T-N conjugacy parities.

    A quotient is a surjection phi: pi^ab -> Z/2^k (k >= 2), one coefficient
    per cyclic factor; N = ker phi, T = phi^-1(2^(k-1) Z), W = phi^-1(2 Z).
    Each class lies in one [G,G]-coset, so the classes are bucketed once by
    their pi^ab coordinates and T - N is the sum of the buckets with
    phi = 2^(k-1).  Tuples that differ by a unit of Z/2^k have the same
    kernel; each kernel is emitted once, at its first tuple in product order.

    The homological filters from the source procedure are NOT applied; every
    sequence is emitted with its parity and the flag set to False.  The
    inversion fixed-point property is asserted on every emitted sequence.
    Raises ScaleError when the number of surjective coefficient tuples times
    |pi^ab| exceeds CONJ62_BOUND.
    """
    ab = abelianization(group)
    ab_order = group.order // ab.derived.order
    scans = []  # (cyclic quotient order >= 4, coefficient choices per factor)
    for k in range(2, max(ab.invariants, default=1).bit_length()):
        target = 1 << k
        choices = [list(range(0, target, target // min(m, target))) for m in ab.invariants]
        scans.append((target, choices))
    # a tuple is surjective unless every coefficient is even
    tuples = sum(
        math.prod(len(c) for c in choices)
        - math.prod(sum(1 for x in c if x % 2 == 0) for c in choices)
        for _target, choices in scans
    )
    if tuples * ab_order > CONJ62_BOUND:
        raise ScaleError(
            f"conj62 bound is (surjective tuples) x |pi^ab| <= 2^24, "
            f"got {tuples} x {ab_order}"
        )
    # pi^ab coordinates -> [classes, inversion-closed classes, elements]
    buckets: Dict[Tuple[int, ...], List[int]] = {}
    # r^G lies in r[G,G] when every [r, x] does, x over a generating set,
    # as [r, gh] = [r, h][r, g]^h
    off_derived = lru_cache(maxsize=None)(lambda c: any(ab.coordinates(c)))
    gens = frattini_generators(group)
    for cls in conjugacy_classes(group):
        if any(off_derived(group.comm(cls.rep, x)) for x in gens):
            raise OozeError("a conjugacy class meets two [G,G]-cosets")
        image = ab.coordinates(cls.rep)
        bucket = buckets.setdefault(image, [0, 0, 0])
        bucket[0] += 1
        bucket[1] += cls.is_real
        bucket[2] += cls.size
    out: List[ConjectureSequence] = []
    for target, choices in scans:
        half = target >> 1
        n_order = group.order // target
        kernels = set()  # tuples scaled so that their first odd coefficient is 1
        for combo in itertools.product(*choices):
            odd = next((c for c in combo if c & 1), 0)
            if not odd:
                continue  # not surjective
            unit = pow(odd, -1, target)
            kernel = tuple(c * unit % target for c in combo)
            if kernel in kernels:
                continue
            kernels.add(kernel)
            count = fixed = size = 0
            for image, (n_classes, n_fixed, n_elems) in buckets.items():
                if sum(map(operator.mul, combo, image)) % target == half:
                    count += n_classes
                    fixed += n_fixed
                    size += n_elems
            if size != n_order:
                raise OozeError("T - N does not have |N| elements")
            if count % 2 == 1 and fixed == 0:
                raise OozeError(
                    "odd class count without an inversion-closed class"
                )
            out.append(
                ConjectureSequence(
                    group=group,
                    n_order=n_order,
                    t_order=2 * n_order,
                    w_order=group.order // 2,
                    cyclic_order=target,
                    class_count=count,
                    parity="odd" if count % 2 else "even",
                )
            )
    return out
