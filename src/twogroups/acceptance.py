"""The acceptance suite: eleven named criteria, each with a hard budget.

Every criterion returns (ok, detail).  All algebra is exact, so comparisons
are bit-exact equality; the only tolerances are wall-clock budgets, which
come from the stated targets (one laptop core).  `run_all` prints one
pass/fail line per criterion; the CLI `selftest` subcommand and the pytest
acceptance module both drive this registry.
"""

from __future__ import annotations

import random
import time
from typing import Callable, Dict, List, Optional, Tuple

from . import catalog as cat_mod
from .catalog import fingerprint, parse_catalog, shipped_catalog
from .f2poly import F2Poly, degree_membership, parse_poly, sq1
from .homology import schur_cover, wedge_space
from .ktheory import (
    central_extension,
    h1_wh_prime,
    search_central_extensions,
    sk1,
    thm41_check,
    thm42_check,
)
from .lhs import LhsError, _reduce_mod, extension_class_rep, lhs_data_for, survives_deg4
from .linalg import iter_bits
from .ooze import (
    adapted_decomposition,
    compatible_pair_check,
    conjecture62_scan,
    lambda4_detect,
)
from .oracles import bar_h2, in_ideal_groebner, kunneth_h2_of_cyclic_product, pc_to_table
from .pcgroup import PcGroup, QuotientGroup, homomorphism, subgroup
from .ktheory import central_extension_from_hom

SEED = 20260809

ABELIAN_SHIPPED = ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4"]
SMALL_SHIPPED = ABELIAN_SHIPPED + ["D8", "Q8"]


def _budget(detail: Dict, elapsed: float, limit: float) -> bool:
    detail["elapsed_s"] = round(elapsed, 3)
    detail["budget_s"] = limit
    return elapsed < limit


def crit_1_wh_prime_ranks() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    detail: Dict = {}
    ok = True
    expected = {"SG128_1377": 0, "SG256_9039": 1}
    for name, want in expected.items():
        got = h1_wh_prime(cat[name]).rank
        detail[name] = got
        ok &= got == want
    for name in ABELIAN_SHIPPED + ["D8", "Q8"]:
        got = h1_wh_prime(cat[name]).rank
        detail[name] = got
        ok &= got == 0
    t0 = time.perf_counter()
    got = h1_wh_prime(cat["G16384"]).rank
    elapsed = time.perf_counter() - t0
    detail["G16384"] = got
    ok &= got == 3
    ok &= _budget(detail, elapsed, 60.0)
    return ok, detail


def crit_2_sk1() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    detail: Dict = {}
    ok = True
    for name, want in [("SG128_1376", (2,)), ("SG128_1377", (2,))]:
        got = sk1(cat[name]).invariants
        detail[name] = list(got)
        ok &= got == want
    for name in ABELIAN_SHIPPED:
        got = sk1(cat[name]).invariants
        detail[f"sk1({name})"] = list(got)
        ok &= got == ()
    bar: Dict[str, List[int]] = {}
    for name in SMALL_SHIPPED:
        g = cat[name]
        stem = schur_cover(g).h2_invariants
        oracle = bar_h2(pc_to_table(g))
        bar[name] = {"stem": list(stem), "bar": list(oracle)}
        ok &= stem == oracle
    detail["bar_oracle"] = bar
    c4c4 = PcGroup(
        "C4xC4", 4, [1 << 2, 1 << 3, 0, 0], [[0] * 4 for _ in range(4)]
    )
    kun = {
        "C2xC2": (cat["C2xC2"], kunneth_h2_of_cyclic_product([2, 2])),
        "C2xC2xC2": (cat["C2xC2xC2"], kunneth_h2_of_cyclic_product([2, 2, 2])),
        "C4xC4": (c4c4, kunneth_h2_of_cyclic_product([4, 4])),
    }
    for name, (g, want) in kun.items():
        got = schur_cover(g).h2_invariants
        detail[f"kunneth({name})"] = {"stem": list(got), "oracle": list(want)}
        ok &= got == want
    return ok, detail


def crit_3_extension_criteria() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    detail: Dict = {}
    ok = True
    t0 = time.perf_counter()
    for cover_name, sigma, quot_name in [
        ("SG256_8177", [7, 8], "SG128_1377"),
        ("SG256_8129", [5, 8], "SG128_1376"),
    ]:
        ext = central_extension(cat[cover_name], sigma)
        r41 = thm41_check(ext)
        r42 = thm42_check(ext)
        detail[cover_name] = {"thm41": r41.holds, "thm42": r42.holds}
        ok &= r41.holds and r42.holds
        entries = search_central_extensions(cat[cover_name])
        want_fp = fingerprint(cat[quot_name])
        found = [e.quotient_fingerprint == want_fp for e in entries]
        detail[f"search({cover_name})"] = {
            "entries": len(entries),
            "matches_expected": found,
            "thm42_flags": [e.thm42_holds for e in entries],
        }
        ok &= len(entries) == 1 and found == [True] and entries[0].thm42_holds
    ok &= _budget(detail, time.perf_counter() - t0, 30.0)
    return ok, detail


def crit_4_membership() -> Tuple[bool, Dict]:
    variables = tuple(f"X{i}" for i in range(1, 8))

    def p(s: str) -> F2Poly:
        return parse_poly(s, variables)

    gens = [
        p("X1^2+X2*X3"),
        p("X2^2+X4*X5"),
        p("X3^2+X6*X7"),
        p("X2^2*X3+X2*X3^2"),
        p("X4^2"),
        p("X5^2"),
        p("X6^2"),
        p("X7^2"),
        p("X4^2*X5+X4*X5^2"),
        p("X6^2*X7+X6*X7^2"),
    ]
    detail: Dict = {}
    t0 = time.perf_counter()
    c1 = degree_membership(p("X1^4"), gens)
    c2 = degree_membership(p("X2^4"), gens)
    c3 = degree_membership(p("X3^4"), gens)
    elapsed = time.perf_counter() - t0
    ok = (not c1.member) and c1.verify(p("X1^4"))
    ok &= c2.member and c2.verify(p("X2^4"))
    ok &= c3.member and c3.verify(p("X3^4"))
    # the two explicit decompositions re-expand to the targets
    ok &= gens[1] * gens[1] + p("X5^2") * p("X4^2") == p("X2^4")
    ok &= gens[2] * gens[2] + p("X6^2") * p("X7^2") == p("X3^4")
    detail["X1^4"] = "non-member"
    detail["X2^4"] = c2.as_dict()["coefficients"]
    detail["X3^4"] = c3.as_dict()["coefficients"]
    ok &= _budget(detail, elapsed, 1.0)
    return ok, detail


TABLE_D2_G16384 = {
    8: "X1^2+X2*X3",
    9: "X2^2+X4*X5",
    10: "X3^2+X6*X7",
    11: "X4^2",
    12: "X5^2",
    13: "X6^2",
    14: "X7^2",
}
TABLE_D3_G16384_RAW = {8: "X2^2*X3+X2*X3^2"}  # zeta_1^2; the rest vanish mod I2
TABLE_D2_9039 = {
    5: "X1^2+X1*X2+X2*X4+X3^2+X4^2",
    6: "X1*X3+X2^2+X3^2+X4^2",
    7: "X1^2+X2*X3",
    8: "X1^2+X1*X4",
}
TABLE_D3_9039_RAW = {
    5: "X1^2*X2+X1*X2^2+X2^2*X4+X2*X4^2",
    6: "X1^2*X3+X1*X3^2",
    7: "X2^2*X3+X2*X3^2",
    8: "X1^2*X4+X1*X4^2",
}
TABLE_D2_8129 = {
    5: "X1*X3+X3*X4+X4^2",
    6: "X1^2+X1*X3+X2^2",
    7: "X1^2+X2*X3",
    8: "X1*X2+X1*X3",
}
TABLE_D2_1376 = {
    5: "X1*X2+X3*X4+X4^2",
    6: "X1^2+X1*X3+X2^2",
    7: "X1^2+X2*X3",
}


def kudo_check(data) -> bool:
    """d3 table equals Sq^1 of the d2 table reduced mod I2 (recomputed)."""
    for label in data.v_labels:
        want = _reduce_mod(data.ideal_gens, sq1(data.d2[label]), 3)
        if data.d3[label] != want:
            return False
    return True


def crit_5_spectral_tables() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    detail: Dict = {}
    ok = True

    def check_tables(name: str, d2_expect: Dict[int, str],
                     d3_raw_expect: Optional[Dict[int, str]] = None) -> None:
        nonlocal ok
        data = lhs_data_for(cat[name])
        got = {l: str(data.d2[l]) for l in data.v_labels}
        same_d2 = all(
            data.d2[l] == parse_poly(s, data.variables) for l, s in d2_expect.items()
        ) and set(got) == set(d2_expect)
        entry = {"d2_match": same_d2}
        if d3_raw_expect is not None:
            raw_ok = all(
                data.d3_raw[l] == parse_poly(s, data.variables)
                for l, s in d3_raw_expect.items()
            )
            rest_zero = all(
                data.d3[l].is_zero()
                for l in data.v_labels
                if l not in d3_raw_expect
            )
            coset_ok = all(
                _reduce_mod(
                    data.ideal_gens,
                    data.d3_raw[l] + parse_poly(s, data.variables),
                    3,
                ).is_zero()
                for l, s in d3_raw_expect.items()
                if not parse_poly(s, data.variables).is_zero()
            )
            entry["d3_raw_match"] = raw_ok
            entry["d3_rest_zero_mod_I2"] = rest_zero
            entry["d3_coset_match"] = coset_ok
            ok_local = same_d2 and raw_ok and rest_zero and coset_ok
        else:
            ok_local = same_d2
        detail[name] = entry
        ok &= ok_local

    check_tables("G16384", TABLE_D2_G16384, TABLE_D3_G16384_RAW)
    check_tables("SG256_9039", TABLE_D2_9039, TABLE_D3_9039_RAW)
    check_tables("SG256_8129", TABLE_D2_8129)
    check_tables("SG128_1376", TABLE_D2_1376)
    kudo = {}
    for name in sorted(shipped_catalog()):
        try:
            data = lhs_data_for(cat[name])
        except LhsError:
            kudo[name] = "not LHS-computable"
            continue
        holds = kudo_check(data)
        kudo[name] = holds
        ok &= holds
    detail["kudo"] = kudo
    return ok, detail


def crit_6_survival() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    detail: Dict = {}
    data = lhs_data_for(cat["G16384"])
    v = survives_deg4(data, data.poly("X1^4"))
    detail["G16384:X1^4"] = v.verdict
    ok = v.verdict == "survives_page4"
    data9 = lhs_data_for(cat["SG256_9039"])
    for f, want in [
        ("X1^4", "dies"),
        ("X2^4+X3^4", "survives_page4"),
        ("X3^4+X4^4", "survives_page4"),
    ]:
        v = survives_deg4(data9, data9.poly(f))
        detail[f"SG256_9039:{f}"] = v.verdict
        ok &= v.verdict == want
        if v.verdict == "dies":
            ok &= v.certificate.verify(data9.poly(f))
    return ok, detail


def _order256_tower():
    cat = shipped_catalog()
    pit, pi = cat["SG256_8129"], cat["SG128_1376"]
    alpha = homomorphism(
        pit, pi, [pi.generators[i] for i in range(7)] + [pi.generators[4]]
    )
    return pi, central_extension_from_hom(pit, alpha)


def crit_7_theta() -> Tuple[bool, Dict]:
    pi, ext = _order256_tower()
    data = lhs_data_for(pi)
    rep = extension_class_rep(ext, data)
    want = data.poly("X1*X2+X1*X3")
    return rep.theta == want, {"theta": str(rep.theta)}


def crit_8_ganea() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    ws = wedge_space(cat["SG128_1376"])
    names = sorted(ws.wedge_name(m) for m in ws.kernel_basis)
    return names == ["e12+e34", "e14", "e24"], {"kernel": names}


def crit_9_compatible_pair() -> Tuple[bool, Dict]:
    t0 = time.perf_counter()
    pi, ext = _order256_tower()
    data = lhs_data_for(pi)
    report = compatible_pair_check(
        pi, ext, data.poly("X1*X2+X1*X3"), data.poly("X3*X4")
    )
    detail = {
        "verdict": report.verdict,
        "conditions": {c.name: c.status for c in report.conditions},
    }
    ok = report.verdict == "compatible" and all(
        c.status == "pass" for c in report.conditions
    )
    ok &= _budget(detail, time.perf_counter() - t0, 120.0)
    return ok, detail


def crit_10_lambda4() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    detail: Dict = {}
    t0 = time.perf_counter()
    r = lambda4_detect(cat["G16384"])
    elapsed = time.perf_counter() - t0
    detail["G16384"] = r.verdict
    ok = r.verdict == "nonzero" and r.certificate is not None
    ok &= _budget(detail, elapsed, 300.0)
    r9 = lambda4_detect(cat["SG256_9039"])
    detail["SG256_9039"] = r9.verdict
    ok &= r9.verdict == "zero"
    for name in ABELIAN_SHIPPED:
        rr = lambda4_detect(cat[name])
        detail[name] = rr.verdict
        ok &= rr.verdict == "zero"
    return ok, detail


# -- criterion 11: randomized property suites -----------------------------------


def _random_word(rng: random.Random, n: int, length: int):
    return [(rng.randrange(1, n + 1), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(length)]


def _insert_relator(rng: random.Random, group: PcGroup, word):
    """Splice a defining relator (as a trivial word) into a random position."""
    n = group.n
    pos = rng.randrange(len(word) + 1)
    if rng.random() < 0.5:
        i = rng.randrange(1, n + 1)
        relator = [(i, 1), (i, 1)]
        for b in reversed(list(iter_bits(group.powers[i - 1]))):
            relator.append((b + 1, -1))
    else:
        i = rng.randrange(1, n)
        j = rng.randrange(i + 1, n + 1)
        relator = [(i, -1), (j, -1), (i, 1), (j, 1)]
        for b in reversed(list(iter_bits(group.comms[i - 1][j - 1]))):
            relator.append((b + 1, -1))
    return word[:pos] + relator + word[pos:]


def prop_consistency() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    bad = {name: g.consistency_failures() for name, g in cat.items()}
    return all(not b for b in bad.values()), {"failures": {k: v for k, v in bad.items() if v}}


def prop_associativity(samples: int = 10000) -> Tuple[bool, Dict]:
    rng = random.Random(SEED)
    cat = shipped_catalog()
    names = ["C8", "D8", "Q8", "SG128_1376", "SG256_8177", "SG256_9039", "G16384"]
    checked = 0
    for _ in range(samples):
        g = cat[names[rng.randrange(len(names))]]
        a, b, c = (rng.randrange(g.order) for _ in range(3))
        if g.mult(g.mult(a, b), c) != g.mult(a, g.mult(b, c)):
            return False, {"counterexample": (g.name, a, b, c)}
        checked += 1
    return True, {"checked": checked}


def prop_collect_uniqueness(samples: int = 10000) -> Tuple[bool, Dict]:
    rng = random.Random(SEED + 1)
    cat = shipped_catalog()
    names = ["C8", "Q8", "SG128_1377", "SG256_8129", "SG256_9039"]
    for _ in range(samples):
        g = cat[names[rng.randrange(len(names))]]
        word = _random_word(rng, g.n, rng.randrange(0, 8))
        padded = _insert_relator(rng, g, word)
        if g.collect(word) != g.collect(padded):
            return False, {"group": g.name, "word": word}
    return True, {"checked": samples}


def prop_class_equation() -> Tuple[bool, Dict]:
    from .pcgroup import conjugacy_classes

    cat = shipped_catalog()
    detail = {}
    for name in ["C8", "D8", "Q8", "SG128_1376", "SG128_1377", "SG256_8177",
                 "SG256_8129", "SG256_9039", "G16384"]:
        g = cat[name]
        classes = conjugacy_classes(g)
        total = sum(len(c.elements) for c in classes)
        sizes_ok = all(
            len(c.elements) * c.centralizer_order == g.order for c in classes
        )
        detail[name] = {"classes": len(classes), "sum": total}
        if total != g.order or not sizes_ok:
            return False, detail
    return True, detail


def prop_quotient_homomorphism(samples: int = 10000) -> Tuple[bool, Dict]:
    rng = random.Random(SEED + 2)
    cat = shipped_catalog()
    g = cat["SG256_8177"]
    q = QuotientGroup(g, subgroup(g, [g.element_from_indices([7, 8])]))
    p = q.projection
    for _ in range(samples):
        a, b = rng.randrange(g.order), rng.randrange(g.order)
        if q.mult(p(a), p(b)) != p(g.mult(a, b)):
            return False, {"pair": (a, b)}
    return True, {"checked": samples}


def prop_sq1(samples: int = 10000) -> Tuple[bool, Dict]:
    rng = random.Random(SEED + 3)
    variables = tuple(f"X{i}" for i in range(1, 6))

    def rand_poly() -> F2Poly:
        terms = []
        for _ in range(rng.randrange(0, 4)):
            mono = [0] * 5
            for _ in range(rng.randrange(1, 4)):
                mono[rng.randrange(5)] += 1
            terms.append(tuple(mono))
        return F2Poly(variables, terms)

    for _ in range(samples):
        f, g = rand_poly(), rand_poly()
        if sq1(f * g) != sq1(f) * g + f * sq1(g):
            return False, {"f": str(f), "g": str(g)}
        if not sq1(sq1(f)).is_zero():
            return False, {"f": str(f), "reason": "Sq1 Sq1 != 0"}
    return True, {"checked": samples}


def prop_groebner_agreement(samples: int = 1000) -> Tuple[bool, Dict]:
    rng = random.Random(SEED + 4)
    agree = 0
    for _ in range(samples):
        nvars = rng.randrange(2, 6)
        variables = tuple(f"X{i}" for i in range(1, nvars + 1))

        def rand_homog(d: int) -> F2Poly:
            from .f2poly import monomials_of_degree

            monos = monomials_of_degree(variables, d)
            picked = [m for m in monos if rng.random() < 0.3]
            if not picked:
                picked = [monos[rng.randrange(len(monos))]]
            return F2Poly(variables, picked)

        gens = [rand_homog(rng.randrange(1, 4)) for _ in range(rng.randrange(1, 4))]
        d = rng.randrange(1, 5)
        f = rand_homog(d)
        cert = degree_membership(f, gens, d)
        gb = in_ideal_groebner(f, gens)
        if cert.member != gb:
            return False, {"f": str(f), "gens": [str(g) for g in gens]}
        if cert.member and not cert.verify(f):
            return False, {"f": str(f), "reason": "certificate failed"}
        agree += 1
    return True, {"checked": agree}


def prop_adapted_postconditions() -> Tuple[bool, Dict]:
    from .linalg import Gf2Span

    cat = shipped_catalog()
    detail = {}
    for name in ["SG256_9039", "G16384"]:
        dec = adapted_decomposition(cat[name])  # verifier runs inside
        dmap = dec.delta
        span = Gf2Span()
        vals = [dmap.value(dec.v_elems[j]) for j in range(dec.k)]
        detail[name] = {"k": dec.k, "first_deltas": vals}
        for v in vals:
            if v == 0 or not span.add(v):
                return False, detail
        if span.rank != dmap.rank:
            return False, detail
        for j in range(dec.k, len(dec.orders)):
            if dmap.value(dec.v_elems[j]) != 0:
                return False, detail
    return True, detail


def prop_conj62_fixed_point() -> Tuple[bool, Dict]:
    cat = shipped_catalog()
    # modular group of order 16: b^2 = 1, a^2 = a2, a2^2 = a4, [b, a] = a4
    m16 = PcGroup(
        "M16", 4,
        [0, 1 << 2, 1 << 3, 0],
        [[0, 1 << 3, 0, 0], [0] * 4, [0] * 4, [0] * 4],
    )
    detail = {}
    for g in [cat["C8"], cat["C2xC4"], cat["SG128_1377"], m16]:
        seqs = conjecture62_scan(g)  # inversion fixed-point asserted inside
        detail[g.name] = [s.parity for s in seqs]
    return True, detail


CRITERIA: List[Tuple[str, str, Callable[[], Tuple[bool, Dict]]]] = [
    ("1", "H1(Wh') rank reproduction", crit_1_wh_prime_ranks),
    ("2", "SK1 reproduction and H2 oracles", crit_2_sk1),
    ("3", "extension criteria and quotient search", crit_3_extension_criteria),
    ("4", "bounded-degree membership (10-generator ideal)", crit_4_membership),
    ("5", "spectral-sequence tables and Kudo identity", crit_5_spectral_tables),
    ("6", "degree-4 survival verdicts", crit_6_survival),
    ("7", "extension-class recovery", crit_7_theta),
    ("8", "wedge-kernel computation", crit_8_ganea),
    ("9", "compatible-pair certification", crit_9_compatible_pair),
    ("10", "lambda_4 detector verdicts", crit_10_lambda4),
    ("11a", "pc consistency of shipped catalog", prop_consistency),
    ("11b", "associativity on random triples", prop_associativity),
    ("11c", "collection uniqueness under relator insertion", prop_collect_uniqueness),
    ("11d", "class equation", prop_class_equation),
    ("11e", "quotient projection is a homomorphism", prop_quotient_homomorphism),
    ("11f", "Sq1 is a derivation squaring to zero", prop_sq1),
    ("11g", "membership agrees with Groebner", prop_groebner_agreement),
    ("11h", "adapted-decomposition postconditions", prop_adapted_postconditions),
    ("11i", "inversion fixed-point on parity scans", prop_conj62_fixed_point),
]


def run_all(verbose: bool = True, fault: Optional[str] = None) -> Tuple[bool, List[Dict]]:
    """Run every criterion; returns overall pass and per-criterion records.

    `fault` injects a deliberate defect ("catalog-corrupt" or "d2-flip") so
    the suite's sensitivity can itself be tested.
    """
    if fault == "catalog-corrupt":
        try:
            text = cat_mod.shipped_catalog_text()
            parse_catalog(text.replace("comm 1 2 = 5", "comm 1 2 = 4", 1))
        except Exception as exc:
            if verbose:
                print(f"FAIL selftest: catalog parse stage: {exc}")
            return False, [{"id": "parse", "ok": False, "error": str(exc)}]
        if verbose:
            print("FAIL selftest: corrupted catalog was not rejected")
        return False, [{"id": "parse", "ok": False, "error": "corruption not detected"}]
    records: List[Dict] = []
    overall = True
    for cid, title, fn in CRITERIA:
        t0 = time.perf_counter()
        try:
            if fault == "d2-flip" and cid == "5":
                ok, detail = _crit_5_with_flip()
            else:
                ok, detail = fn()
            error = None
        except Exception as exc:  # pragma: no cover - defensive
            ok, detail, error = False, {}, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - t0
        records.append(
            {
                "id": cid,
                "title": title,
                "ok": ok,
                "seconds": round(elapsed, 3),
                "detail": detail,
                **({"error": error} if error else {}),
            }
        )
        overall &= ok
        if verbose:
            status = "PASS" if ok else "FAIL"
            print(f"{status} [{cid:>3}] {title} ({elapsed:.1f}s)")
            if error:
                print(f"      {error}")
    return overall, records


def _crit_5_with_flip() -> Tuple[bool, Dict]:
    """Criterion 5 with one d2 coefficient flipped -- must fail Kudo."""
    cat = shipped_catalog()
    data = lhs_data_for(cat["G16384"])
    label = data.v_labels[0]
    flip = F2Poly(data.variables, [tuple([1, 1] + [0] * (len(data.variables) - 2))])
    data.d2[label] = data.d2[label] + flip
    holds = kudo_check(data)
    return holds, {"kudo_after_flip": holds}
