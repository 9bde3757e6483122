"""Command-line front end.

Subcommands: info, h1whp, sk1, cover, search-ext, lhs-report, lambda4,
compat, conj62, selftest.  Group references resolve against the shipped
catalog first, then against --catalog files (use file entries by name).
Machine output with --json is deterministic apart from the timing field;
progress for long scans goes to stderr only.

Exit codes: 0 success, 1 computational precondition failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from . import __version__
from .catalog import (
    CatalogError,
    fingerprint,
    input_digest,
    parse_catalog,
    serialize,
    shipped_catalog,
)
from .f2poly import PolyError, parse_poly
from .homology import ScaleError, schur_cover
from .ktheory import (
    central_extension_from_hom,
    h1_wh_prime,
    search_central_extensions,
    sk1,
)
from .lhs import LhsError, dead_quartic_subspace, lhs_data_for, survives_deg4
from .ooze import OozeError, compatible_pair_check, conjecture62_scan, lambda4_detect
from .pcgroup import PcError, PcGroup, homomorphism

USAGE_ERROR = 2
COMPUTE_ERROR = 1


def _load_groups(paths: List[str]) -> Dict[str, PcGroup]:
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


def _resolve(groups: Dict[str, PcGroup], ref: str) -> PcGroup:
    if ref in groups:
        return groups[ref]
    raise UnknownGroupError(ref)


def _emit(args, group: Optional[PcGroup], invariant: str, value, certificate=None) -> None:
    if args.json:
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
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError as exc:
        raise PolyError(f"bad generator word {text!r}") from exc


def cmd_info(args, groups) -> int:
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
    g = _resolve(groups, args.group)
    data = h1_wh_prime(g)
    _emit(args, g, "h1_wh_prime", {"rank": data.rank}, certificate=data.as_dict())
    return 0


def cmd_sk1(args, groups) -> int:
    g = _resolve(groups, args.group)
    data = sk1(g)
    _emit(args, g, "sk1", {"invariants": list(data.invariants)}, certificate=data.as_dict())
    return 0


def cmd_cover(args, groups) -> int:
    g = _resolve(groups, args.group)
    cover = schur_cover(g)
    value = {
        "cover_order": cover.cover.order,
        "kernel_order": cover.kernel.order,
        "stem_order": cover.stem_part.order,
        "h2_invariants": list(cover.h2_invariants),
    }
    _emit(args, g, "schur_cover", value)
    return 0


def cmd_search_ext(args, groups) -> int:
    g = _resolve(groups, args.group)
    print(f"scanning central order-2 subgroups of {g.name} ...", file=sys.stderr)
    entries = search_central_extensions(g)
    value = {"count": len(entries), "entries": [e.as_dict() for e in entries]}
    _emit(args, g, "search_central_extensions", value)
    return 0


def cmd_lhs_report(args, groups) -> int:
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
    g = _resolve(groups, args.group)
    report = lambda4_detect(g)
    value = {"verdict": report.verdict, "reasons": report.reasons}
    _emit(args, g, "lambda4", value, certificate=report.certificate)
    return 0


def cmd_compat(args, groups) -> int:
    g = _resolve(groups, args.group)
    cover = _resolve(groups, args.cover)
    if not args.images:
        raise PcError(
            "compat needs --images: the verified surjection onto the base "
            "group, one image index per cover generator"
        )
    idx = _word(args.images)
    if len(idx) != cover.n:
        raise PcError(f"need {cover.n} generator images, got {len(idx)}")
    images = []
    for i in idx:
        if not 0 <= i <= g.n:
            raise PcError(f"image index {i} out of range 0..{g.n} (0 = identity)")
        images.append(g.generators[i - 1] if i else 0)
    alpha = homomorphism(cover, g, images)
    ext = central_extension_from_hom(cover, alpha)
    if args.sigma:
        t = cover.element_from_indices(_word(args.sigma))
        if t not in ext.sigma.elements:
            raise PcError("--sigma word does not generate the kernel of --images")
    data = lhs_data_for(g)
    theta = parse_poly(args.theta, data.variables)
    z = parse_poly(args.z, data.variables)
    report = compatible_pair_check(g, ext, theta, z)
    _emit(args, g, "compatible_pair", report.as_dict())
    return 0


def cmd_conj62(args, groups) -> int:
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
    except PolyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (ScaleError, LhsError, OozeError, PcError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return COMPUTE_ERROR
    except BrokenPipeError:
        # downstream consumer closed the stream (e.g. piping into head)
        try:
            sys.stdout.close()
        except OSError:
            pass
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
