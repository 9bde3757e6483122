"""Command-line front end.

Subcommands: info, h1whp, sk1, cover, search-ext, lhs-report, lambda4,
compat, conj62, selftest.  Group references resolve against the shipped
catalog first, then against --catalog files (use file entries by name).
Machine output with --json is deterministic apart from the timing field;
progress for long scans goes to stderr only.

At module level only the standard library is imported; each subcommand
imports its layer when it runs, so a call loads only what it uses.  The
timing field counts from entry to main, so it includes those imports but
not interpreter start-up or the package import.

Exit codes: 0 success, 1 computational precondition failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from typing import TYPE_CHECKING, Dict, List, Optional

from . import __version__

if TYPE_CHECKING:
    from .f2poly import F2Poly
    from .pcgroup import PcGroup

USAGE_ERROR = 2
COMPUTE_ERROR = 1


def _load_groups(paths: List[str]) -> Dict[str, PcGroup]:
    from .catalog import parse_catalog, shipped_catalog

    # shipped names win on collision: references resolve against the shipped
    # catalog first, then against --catalog files
    groups = dict(shipped_catalog())
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            for g in parse_catalog(fh.read()):
                groups.setdefault(g.name, g)
    return groups


class UnknownGroupError(LookupError):
    """A group reference that neither the shipped catalog nor --catalog has."""


class UsageError(ValueError):
    """Malformed command-line input, found before any computation."""


def _resolve(groups: Dict[str, PcGroup], ref: str) -> PcGroup:
    if ref in groups:
        return groups[ref]
    raise UnknownGroupError(ref)


def _emit(args, group: Optional[PcGroup], invariant: str, value, certificate=None) -> None:
    if args.json:
        from .catalog import input_digest

        report = {
            "tool": "twogroups",
            "version": __version__,
            "invariant": invariant,
        }
        if group is not None:
            report["group"] = group.name
            report["input_digest"] = input_digest(group)
        report["value"] = value
        if certificate is not None:
            report["certificate"] = certificate
        report["timing_ms"] = round((time.perf_counter() - args.started) * 1000, 1)
        print(json.dumps(report, sort_keys=True))
    else:
        if isinstance(value, dict):
            for k, v in value.items():
                print(f"{k}: {v}")
        else:
            print(value)
        if certificate is not None:
            print(f"certificate: {json.dumps(certificate, sort_keys=True)}")


def _word(text: str) -> List[int]:
    from .f2poly import PolyError

    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise PolyError(f"bad generator word {text!r}") from exc


def _indices(label: str, text: str, low: int, high: int) -> List[int]:
    idx = _word(text)
    for i in idx:
        if not low <= i <= high:
            raise UsageError(f"{label} index {i} out of range {low}..{high}")
    return idx


def _quadratic(label: str, text: str, variables) -> F2Poly:
    from .f2poly import parse_poly

    poly = parse_poly(text, variables)
    if poly and (not poly.is_homogeneous() or poly.degree() != 2):
        raise UsageError(f"--{label} must be homogeneous of degree 2 (or zero)")
    return poly


def cmd_info(args, groups) -> int:
    from .catalog import fingerprint, serialize

    g = _resolve(groups, args.group)
    fp = fingerprint(g)
    value = {
        "name": g.name,
        "order": g.order,
        "ngens": g.n,
        "fingerprint": fp.as_dict(),
        "presentation": serialize(g).strip(),
    }
    _emit(args, g, "info", value)
    return 0


def cmd_h1whp(args, groups) -> int:
    from .ktheory import h1_wh_prime

    g = _resolve(groups, args.group)
    data = h1_wh_prime(g)
    _emit(args, g, "h1_wh_prime", {"rank": data.rank}, certificate=data.as_dict())
    return 0


def cmd_sk1(args, groups) -> int:
    from .ktheory import sk1

    g = _resolve(groups, args.group)
    data = sk1(g)
    _emit(args, g, "sk1", {"invariants": list(data.invariants)}, certificate=data.as_dict())
    return 0


def cmd_cover(args, groups) -> int:
    from .homology import cover_presentation

    g = _resolve(groups, args.group)
    pres = cover_presentation(g)
    h2_order = math.prod(pres.h2_invariants)  # the kernel, all of it stem
    value = {
        "cover_order": pres.cover.order,
        "kernel_order": h2_order,
        "stem_order": h2_order,
        "h2_invariants": list(pres.h2_invariants),
    }
    _emit(args, g, "schur_cover", value)
    return 0


def cmd_search_ext(args, groups) -> int:
    from .ktheory import search_central_extensions

    g = _resolve(groups, args.group)
    print(f"scanning central order-2 subgroups of {g.name} ...", file=sys.stderr)
    entries = search_central_extensions(g)
    value = {"count": len(entries), "entries": [e.as_dict() for e in entries]}
    _emit(args, g, "search_central_extensions", value)
    return 0


def cmd_lhs_report(args, groups) -> int:
    from .lhs import dead_quartic_subspace, lhs_data_for, survives_deg4

    g = _resolve(groups, args.group)
    data = lhs_data_for(g)
    value = data.as_dict()
    if args.page4:
        masks, polys = dead_quartic_subspace(data)
        survivors = []
        for a, name in enumerate(data.variables):
            verdict = survives_deg4(data, data.poly(f"{name}^4"))
            if verdict.verdict == "survives_page4":
                survivors.append(f"{name}^4")
        value["survivors_deg4"] = survivors
        value["dead_quartics"] = [str(p) for p in polys]
    _emit(args, g, "lhs_report", value)
    return 0


def cmd_lambda4(args, groups) -> int:
    from .ooze import lambda4_detect

    g = _resolve(groups, args.group)
    report = lambda4_detect(g)
    value = {"verdict": report.verdict, "reasons": report.reasons}
    _emit(args, g, "lambda4", value, certificate=report.certificate)
    return 0


def cmd_compat(args, groups) -> int:
    from .ktheory import central_extension_from_hom, check_sk1_pairs
    from .lhs import lhs_data_for
    from .ooze import compatible_pair_check
    from .pcgroup import PcError, check_element_walk, homomorphism

    g = _resolve(groups, args.group)
    cover = _resolve(groups, args.cover)
    idx = _indices("image", args.images or "", 0, g.n)
    if len(idx) != cover.n:
        raise UsageError(f"--images needs {cover.n} generator images, got {len(idx)}")
    images = [g.generators[i - 1] if i else 0 for i in idx]
    sigma = _indices("--sigma", args.sigma or "", 1, cover.n)
    data = lhs_data_for(g)
    theta = _quadratic("theta", args.theta, data.variables)
    z = _quadratic("z", args.z, data.variables)
    alpha = homomorphism(cover, g, images)
    # the report's walks are refused before the extension is built
    check_element_walk(cover, "central_extension_from_hom")
    check_sk1_pairs(g)
    ext = central_extension_from_hom(cover, alpha)
    if sigma and cover.element_from_indices(sigma) != ext.t:
        raise PcError("--sigma word does not generate the kernel of --images")
    report = compatible_pair_check(g, ext, theta, z)
    _emit(args, g, "compatible_pair", report.as_dict())
    return 0


def cmd_conj62(args, groups) -> int:
    from .ooze import conjecture62_scan

    g = _resolve(groups, args.group)
    seqs = conjecture62_scan(g)
    value = {
        "sequences": [s.as_dict() for s in seqs],
        "homological_filters_applied": False,
    }
    _emit(args, g, "conjecture62_scan", value)
    return 0


def cmd_selftest(args, groups) -> int:
    from .acceptance import run_all

    ok, records = run_all(verbose=not args.json, fault=args.inject_fault)
    if args.json:
        print(json.dumps({"ok": ok, "criteria": records}, sort_keys=True, default=str))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="machine-readable output")
    common.add_argument(
        "--catalog", action="append", default=[], metavar="PATH",
        help="additional catalog file (may repeat)",
    )
    parser = argparse.ArgumentParser(
        prog="twogroups",
        description="Exact invariants of finite 2-groups from pc presentations",
    )
    sub = parser.add_subparsers(dest="command")
    for name, fn, help_text in [
        ("info", cmd_info, "order, fingerprint and presentation"),
        ("h1whp", cmd_h1whp, "rank of H^1(Wh'(Z2^G))"),
        ("sk1", cmd_sk1, "SK1 of the 2-adic group ring"),
        ("cover", cmd_cover, "Schur cover and H2 invariants"),
        ("search-ext", cmd_search_ext, "quotients with nonzero SK1"),
        ("lambda4", cmd_lambda4, "oozing detector verdict"),
        ("conj62", cmd_conj62, "cyclic-quotient parity scan"),
    ]:
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("group")
        p.set_defaults(fn=fn)
    p = sub.add_parser(
        "lhs-report", help="d2/d3 tables (and survival with --page4)", parents=[common]
    )
    p.add_argument("group")
    p.add_argument("--page4", action="store_true", help="include degree-4 survival")
    p.set_defaults(fn=cmd_lhs_report)
    p = sub.add_parser("compat", help="compatible-pair certification", parents=[common])
    p.add_argument("group", help="base group pi")
    p.add_argument("--cover", required=True, help="cover group pi~")
    p.add_argument("--images", help="generator images of the hom onto pi, e.g. '1 2 3 4 5 6 7 5'")
    p.add_argument("--sigma", help="sigma generator word in the cover, e.g. '5 8'")
    p.add_argument("--theta", required=True, help="polynomial literal, e.g. X1*X2+X1*X3")
    p.add_argument("--z", required=True, help="polynomial literal, e.g. X3*X4")
    p.set_defaults(fn=cmd_compat)
    p = sub.add_parser("selftest", help="run the acceptance suite", parents=[common])
    p.add_argument(
        "--inject-fault", choices=["catalog-corrupt", "d2-flip"], default=None,
        help="deliberately break one stage (suite must then fail)",
    )
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    started = time.perf_counter()
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return USAGE_ERROR
    args.started = started
    from .catalog import CatalogError

    try:
        groups = _load_groups(args.catalog)
    except (OSError, CatalogError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return args.fn(args, groups)
    except UnknownGroupError as exc:
        print(f"error: unknown group {exc.args[0]!r}", file=sys.stderr)
        return USAGE_ERROR
    except ValueError as exc:
        # every domain error is a ValueError; the classes are looked up only
        # once one is raised, so that a call imports no layer it does not run
        from .f2poly import PolyError
        from .lhs import LhsError
        from .ooze import OozeError
        from .pcgroup import PcError, ScaleError

        if isinstance(exc, (PolyError, UsageError)):
            code = USAGE_ERROR
        elif isinstance(exc, (ScaleError, LhsError, OozeError, PcError)):
            code = COMPUTE_ERROR
        else:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # downstream consumer closed the stream (e.g. piping into head)
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
