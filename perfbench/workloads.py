"""The four workloads: their inputs, their operations and the checks on
every answer.

All four are closed loops: one call at a time from one process.  Every
in-process call gets a group freshly built from its presentation, because
PcGroup keeps memo tables and a repeat call on the same object is cheaper
than what a CLI user pays.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import resource
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

import checks
from groups import HERE, ROOT, SRC, fresh, ladder_seed, load_covers, relabel, rkm, sk1_ladder

# (k, m) of the seeded R(k,m) ladders.
CLASS2_LADDER = [(4, 4), (5, 5), (6, 6), (8, 6)]           # 2^8 .. 2^14
SK1_LADDER = [(3, 2), (4, 2), (4, 3), (5, 3), (5, 4)]      # 2^5 .. 2^9
CLASS2_SHIPPED = ["G16384", "SG256_9039", "SG128_1376", "SG128_1377"]
SK1_SHIPPED = ["C2", "C4", "C8", "C2xC2", "C2xC2xC2", "C2xC4", "D8", "Q8",
               "SG128_1376", "SG128_1377", "SG256_8129", "SG256_8177", "SG256_9039"]
SEARCH_SHIPPED = ["SG256_8129", "SG256_8177"]
# Brute-force recounts (Burnside, the rank of S/C) only up to this order.
BRUTE_ORDER = 1 << 9
# Relabelled copies are checked up to this order, and on the shipped groups.
RELABEL_ORDER = 1 << 10
COMPAT_ARGS = ["SG128_1376", "--cover", "SG256_8129", "--images", "1 2 3 4 5 6 7 5",
               "--theta", "X1*X2+X1*X3", "--z", "X3*X4"]

# cli_session calls, without "--json".  conj62 runs on small groups only:
# on G16384 it runs for minutes with no scale guard.
CLI_CALLS = [
    ["info", "SG128_1376"],
    ["info", "SG128_1377"],
    ["h1whp", "SG128_1377"],
    ["h1whp", "SG256_9039"],
    ["h1whp", "G16384"],
    ["sk1", "SG128_1376"],
    ["sk1", "SG128_1377"],
    ["cover", "SG128_1376"],
    ["search-ext", "SG256_8177"],
    ["search-ext", "SG256_8129"],
    ["lhs-report", "SG256_9039", "--page4"],
    ["lambda4", "G16384"],
    ["lambda4", "SG256_9039"],
    ["compat"] + COMPAT_ARGS,
    ["conj62", "C8"],
    ["conj62", "C2xC4"],
    ["selftest"],
]


def public(module: str, name: str) -> Callable:
    """twogroups.<module>.<name>, looked up at each call, so that the
    tracer's wrapper is called when it is installed."""
    mod = importlib.import_module(f"twogroups.{module}")

    def call(*args):
        return getattr(mod, name)(*args)

    return call


@dataclass
class Op:
    """One timed operation: call(*prepare()) is timed, check(result) is not
    and returns a digest that must be equal in every round."""

    label: str
    call: Callable
    prepare: Callable = lambda: ()
    check: Callable = lambda result: None


@dataclass
class Workload:
    name: str
    ops: List[Op]
    post_check: Callable[[], None] = lambda: None
    peak_rss_kb: Callable[[], int] = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    cli: Optional["CliRunner"] = None


def build_inputs(workload: str, seed: int) -> Dict:
    """Everything a workload's set-up builds: import, the parsed and
    validated catalog, the workload's groups."""
    from twogroups.catalog import shipped_catalog

    cat = shipped_catalog()
    if workload == "class2_ladder":
        groups = [rkm(k, m, ladder_seed(k, m, seed)) for k, m in CLASS2_LADDER]
        return {"groups": groups + [cat[n] for n in CLASS2_SHIPPED]}
    if workload == "generic_covers":
        covers = load_covers()
        return {"covers": list(covers.values()), "search": [cat[n] for n in SEARCH_SHIPPED]}
    if workload == "sk1_covers":
        groups = [cat[n] for n in SK1_SHIPPED]
        groups += sk1_ladder(SK1_LADDER, seed)
        return {"groups": groups, "compat": (cat["SG128_1376"], cat["SG256_8129"])}
    if workload == "cli_session":
        return {"catalog": cat}
    raise ValueError(f"unknown workload {workload!r}")


# -- class2_ladder and generic_covers ----------------------------------------


def _h1_op(g, ctx) -> Op:
    def check(data):
        checks.witnesses(g, data.witnesses)
        checks.h1_rank(g.name, data.rank)
        ctx.setdefault("rank", {})[g.name] = data.rank
        return (data.rank, data.s_subgroup.order, data.c_subgroup.order, len(data.witnesses))

    return Op(f"h1_wh_prime {g.name}", public("ktheory", "h1_wh_prime"), lambda: (fresh(g),),
              check)


def _classes_op(g, ctx) -> Op:
    def check(classes):
        checks.class_equation(g.order, classes)
        sizes = tuple(sorted(len(c.elements) for c in classes))
        ctx.setdefault("class_sizes", {})[g.name] = sizes
        return sizes

    return Op(f"conjugacy_classes {g.name}", public("pcgroup", "conjugacy_classes"),
              lambda: (fresh(g),), check)


def _lambda4_op(g, ctx) -> Op:
    def check(report):
        checks.lambda4(g.name, report.verdict, report.certificate)
        checks.rank_zero_means_zero(ctx["rank"][g.name], report.verdict)
        ctx.setdefault("lambda4", {})[g.name] = report.verdict
        return report.verdict

    return Op(f"lambda4_detect {g.name}", public("ooze", "lambda4_detect"), lambda: (fresh(g),),
              check)


def _fingerprint_op(g, ctx) -> Op:
    def check(fp):
        checks.expect(f"{g.name} fingerprint order", fp.order, g.order)
        checks.expect(f"{g.name} fingerprint class sizes", fp.class_sizes,
                      ctx["class_sizes"][g.name])
        ctx.setdefault("fingerprint", {})[g.name] = fp
        return fp

    return Op(f"fingerprint {g.name}", public("catalog", "fingerprint"), lambda: (fresh(g),),
              check)


def _brute_checks(groups, ctx) -> None:
    """Burnside and the brute-force rank on groups of order <= BRUTE_ORDER."""
    for g in groups:
        if g.order > BRUTE_ORDER:
            continue
        table = checks.mult_table(g)
        checks.burnside(g.order, len(ctx["class_sizes"][g.name]),
                        checks.commuting_pair_count(table))
        checks.expect(f"{g.name} brute-force H^1(Wh') rank", ctx["rank"][g.name],
                      checks.brute_h1_rank(table))


def class2_ladder(seed: int, inputs: Dict) -> Workload:
    ctx: Dict = {}
    groups = inputs["groups"]
    ops = []
    for g in groups:
        ops += [_h1_op(g, ctx), _classes_op(g, ctx), _lambda4_op(g, ctx), _fingerprint_op(g, ctx)]

    def post_check():
        from twogroups.catalog import fingerprint
        from twogroups.ktheory import h1_wh_prime
        from twogroups.ooze import lambda4_detect
        from twogroups.pcgroup import conjugacy_classes

        _brute_checks(groups, ctx)
        rng = random.Random(seed)
        for g in groups:
            if g.order > RELABEL_ORDER and g.name not in CLASS2_SHIPPED:
                continue
            r = relabel(g, rng)
            wh = h1_wh_prime(r)
            checks.witnesses(r, wh.witnesses)
            checks.expect(f"{r.name} rank", wh.rank, ctx["rank"][g.name])
            checks.expect(f"{r.name} class sizes",
                          tuple(sorted(len(c.elements) for c in conjugacy_classes(r))),
                          ctx["class_sizes"][g.name])
            checks.expect(f"{r.name} lambda_4", lambda4_detect(r).verdict, ctx["lambda4"][g.name])
            checks.expect(f"{r.name} fingerprint", fingerprint(r), ctx["fingerprint"][g.name])

    return Workload("class2_ladder", ops, post_check)


def generic_covers(seed: int, inputs: Dict) -> Workload:
    from twogroups.catalog import fingerprint, shipped_catalog

    ctx: Dict = {}
    covers = inputs["covers"]
    ops = []
    for g in covers:
        ops += [_h1_op(g, ctx), _classes_op(g, ctx)]
    cat = shipped_catalog()
    quotient_fps = {
        name: fingerprint(cat[name]).as_dict() for _s, name in checks.SEARCH_EXT.values()
    }
    for g in inputs["search"]:
        def check(entries, g=g):
            dicts = [e.as_dict() for e in entries]
            checks.search_ext(g.name, dicts, quotient_fps)
            return json.dumps(dicts, sort_keys=True)

        ops.append(Op(f"search_central_extensions {g.name}",
                      public("ktheory", "search_central_extensions"),
                      lambda g=g: (fresh(g),), check))
    return Workload("generic_covers", ops, lambda: _brute_checks(covers, ctx))


# -- sk1_covers ----------------------------------------------------------------


def sk1_covers(seed: int, inputs: Dict) -> Workload:
    from twogroups import oracles

    groups = inputs["groups"]
    bar = {
        g.name: oracles.bar_h2(oracles.pc_to_table(g)) for g in groups if g.order <= 16
    }
    ops = []
    for g in groups:
        def check_cover(cover, g=g):
            checks.cover_answer(g.order, cover.cover.order, cover.kernel.order,
                                cover.stem_part.order, cover.h2_invariants)
            if g.name in bar:
                checks.expect(f"{g.name} H_2 against the bar resolution",
                              tuple(cover.h2_invariants), tuple(bar[g.name]))
            return tuple(cover.h2_invariants)

        def check_sk1(data, g=g):
            checks.sk1_answer(g, bar.get(g.name), data.invariants, data.cover.h2_invariants)
            return (tuple(data.invariants), tuple(data.cover.h2_invariants))

        ops.append(Op(f"schur_cover {g.name}", public("homology", "schur_cover"),
                      lambda g=g: (fresh(g),), check_cover))
        ops.append(Op(f"sk1 {g.name}", public("ktheory", "sk1"),
                      lambda g=g: (fresh(g),), check_sk1))

    pi, pit = inputs["compat"]

    def compat(pi, pit):
        from twogroups.ktheory import central_extension_from_hom
        from twogroups.lhs import lhs_data_for
        from twogroups.ooze import compatible_pair_check
        from twogroups.pcgroup import homomorphism

        idx = [int(t) for t in COMPAT_ARGS[4].split()]
        alpha = homomorphism(pit, pi, [pi.generators[i - 1] for i in idx])
        ext = central_extension_from_hom(pit, alpha)
        data = lhs_data_for(pi)
        return compatible_pair_check(pi, ext, data.poly(COMPAT_ARGS[6]), data.poly(COMPAT_ARGS[8]))

    def check_compat(report):
        checks.compat(report.verdict)
        return report.verdict

    ops.append(Op("compatible_pair_check SG128_1376 SG256_8129", compat,
                  lambda: (fresh(pi), fresh(pit)), check_compat))
    return Workload("sk1_covers", ops)


# -- cli_session -----------------------------------------------------------------


class CliRunner:
    """Runs `python3 -m twogroups.cli ... --json` in a child process and
    keeps the largest peak resident set among the children."""

    def __init__(self) -> None:
        self.peak_rss_kb = 0
        self.trace_dir: Optional[str] = None  # set: run traced children
        self.env = dict(os.environ, PYTHONPATH=SRC)
        self.traces: List[Dict] = []

    def __call__(self, argv: List[str]):
        if self.trace_dir is None:
            cmd = [sys.executable, "-m", "twogroups.cli"] + argv + ["--json"]
            trace_path = None
        else:
            trace_path = os.path.join(self.trace_dir, f"cli-{os.getpid()}-{len(self.traces)}.json")
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), trace_path]
            cmd += argv + ["--json"]
        proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE)
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise
        # communicate() reaped the child; its rusage is in RUSAGE_CHILDREN,
        # whose ru_maxrss is that of the largest child so far
        self.peak_rss_kb = max(self.peak_rss_kb,
                               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        if trace_path is not None and os.path.exists(trace_path):
            with open(trace_path, encoding="utf-8") as fh:
                self.traces.append(json.load(fh))
            os.remove(trace_path)
        return proc.returncode, out.decode(), err.decode()


def _cli_check(argv: List[str], fps: Dict):
    sub, group = argv[0], (argv[1] if len(argv) > 1 else None)

    def check(result):
        from twogroups.catalog import shipped_catalog

        code, out, err = result
        if code != 0:
            raise checks.CheckFailed(f"{' '.join(argv)}: exit {code}: {err.strip()[-300:]}")
        report = json.loads(out)
        report.pop("timing_ms", None)
        value = report.get("value", report)
        if sub == "info":
            fps[group] = value["fingerprint"]
            checks.expect(f"info {group} order", value["order"], 1 << value["ngens"])
        elif sub == "h1whp":
            checks.h1_rank(group, value["rank"])
        elif sub == "sk1":
            checks.expect(f"sk1 {group}", tuple(value["invariants"]), checks.SK1_INVARIANTS[group])
            h2 = report["certificate"]["h2_invariants"]
            checks.divides(checks.product(value["invariants"]), checks.product(h2),
                           f"{group} |SK_1| | |H_2|")
        elif sub == "cover":
            checks.cover_answer(shipped_catalog()[group].order, value["cover_order"],
                                value["kernel_order"], value["stem_order"], value["h2_invariants"])
        elif sub == "search-ext":
            checks.expect(f"search-ext {group} count", value["count"], len(value["entries"]))
            checks.search_ext(group, value["entries"], fps)
        elif sub == "lhs-report":
            checks.page4(["X" + w[1:] for w in value["W"]], value["dead_quartics"],
                         value["survivors_deg4"])
        elif sub == "lambda4":
            checks.lambda4(group, value["verdict"], report.get("certificate"))
        elif sub == "compat":
            checks.compat(value["verdict"])
        elif sub == "conj62":
            checks.conj62(shipped_catalog()[group].order, value["sequences"])
        elif sub == "selftest":
            checks.expect("selftest ok", report["ok"], True)
            # criteria carry their own timings
            return [(c["id"], c["ok"]) for c in report["criteria"]]
        return json.dumps(report, sort_keys=True)

    return check


def cli_session(seed: int, inputs: Dict) -> Workload:
    runner = CliRunner()
    fps: Dict = {}
    ops = [Op("cli " + " ".join(a), runner, lambda a=a: (a,), _cli_check(a, fps))
           for a in CLI_CALLS]
    return Workload("cli_session", ops, peak_rss_kb=lambda: runner.peak_rss_kb, cli=runner)


WORKLOADS = {
    "class2_ladder": class2_ladder,
    "generic_covers": generic_covers,
    "sk1_covers": sk1_covers,
    "cli_session": cli_session,
}
