"""Benchmark for twogroups: one workload per run, every answer checked.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its src/.
The last line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, solve_s,
peak_rss_mb); with --trace 1 they are the per-layer ones.  The line before
it carries the raw seconds and reference-loop readings of the run, which
are for reference only.  A traced run also writes its spans to
perfbench/out/.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from typing import Dict, List

from groups import HERE, ROOT, fresh, import_program, load_covers
from refclock import Clock
import checks
import workloads

SETUP_REPEATS = 7
OUT_DIR = os.path.join(HERE, "out")
MULT_PAIRS = 20_000
MULT_REPEATS = 3

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    # A per-layer "_s" metric is the self time of the layer's spans: one
    # traced set-up plus the mean over traced rounds, in normalised seconds.
    # Counts are per traced round.
    PER_LAYER = json.load(_fh)["per_layer"]
# Count metrics read from the tracer's counters under another name.
COUNT_SOURCES = {
    "pcgroup.witness_calls": "pcgroup.witness",
    "f2poly.membership_calls": "f2poly.degree_membership",
}


def cold_setup_s(workload: str, seed: int) -> List[float]:
    """Normalised seconds of SETUP_REPEATS set-ups, each in a fresh
    interpreter."""
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_child.py"), workload, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise SystemExit(f"perfbench: set-up failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


class Runner:
    """Runs whole rounds of a workload's operations and checks every answer."""

    def __init__(self, wl: workloads.Workload, clock: Clock) -> None:
        self.wl = wl
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors: List[str] = []
        self.digests: Dict[str, object] = {}
        self.round_walls: List[float] = []
        self.peak_rss_kb = 0

    def round(self, tracer=None) -> Dict[str, tuple]:
        """One round; label -> (raw s, normalised s, span range) per op
        that did not fail."""
        times = {}
        for op in self.wl.ops:
            args = op.prepare()
            first = len(tracer.spans) if tracer else 0
            self.attempted += 1
            try:
                result, raw, norm = self.clock.time(op.call, *args)
            except Exception as exc:  # counted, not fatal; it has no time for solve_s
                self.failed += 1
                self.correct = False
                self.errors.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            try:
                digest = op.check(result)
                if self.digests.setdefault(op.label, digest) != digest:
                    raise checks.CheckFailed(f"{op.label}: answer changed between rounds")
            except Exception as exc:
                self.failed += 1
                self.correct = False
                self.errors.append(f"{op.label}: wrong answer: {exc}")
                continue
            last = len(tracer.spans) if tracer else 0
            times[op.label] = (raw, norm, first, last)
        return times

    def rounds(self, seconds: float, tracer=None) -> List[Dict[str, tuple]]:
        """Whole rounds while another one is expected to end in time;
        always at least one."""
        out = []
        start = time.perf_counter()
        longest = 0.0
        while True:
            t0 = time.perf_counter()
            out.append(self.round(tracer))
            now = time.perf_counter()
            if not self.round_walls:
                # the peak after the first round: later rounds only add
                # allocator history, which differs from run to run
                self.peak_rss_kb = self.wl.peak_rss_kb()
            self.round_walls.append(now - t0)
            longest = max(longest, now - t0)
            if now + longest > start + seconds:
                return out


def solve_s(rounds: List[Dict[str, tuple]], col: int = 1) -> float:
    """Sum over operations of the median over rounds."""
    labels = {label for r in rounds for label in r}
    return sum(statistics.median(r[label][col] for r in rounds if label in r) for label in labels)


def mult_rate(clock: Clock, group, seed: int) -> float:
    """Products per normalised second on a fresh copy, over seeded pairs;
    the median of MULT_REPEATS passes."""
    rng = random.Random(seed)
    pairs = [(rng.randrange(group.order), rng.randrange(group.order)) for _ in range(MULT_PAIRS)]

    def run(g):
        mult = g.mult
        for a, b in pairs:
            mult(a, b)

    rates = []
    for _ in range(MULT_REPEATS):
        _r, _raw, norm = clock.time(run, fresh(group))
        rates.append(MULT_PAIRS / norm)
    return statistics.median(rates)


def traced_layers(args, runner: Runner, clock: Clock, start: float) -> Dict[str, Dict]:
    """Per-layer metrics: untraced rounds as the overhead reference, the
    multiplication rates, then one traced set-up and traced rounds."""
    from layertrace import Tracer
    from twogroups.catalog import shipped_catalog

    plain = runner.rounds(args.seconds / 2)
    fast = mult_rate(clock, shipped_catalog()["G16384"], args.seed)
    generic = mult_rate(clock, load_covers()["Cover_SG128_1376"], args.seed)

    cli = runner.wl.cli
    if cli is not None:
        cli.trace_dir = OUT_DIR
    tracer = Tracer()
    tracer.install()
    try:
        shipped_catalog.cache_clear()
        _r, raw, norm = clock.time(workloads.build_inputs, args.workload, args.seed)
        layers = {k: v * norm / raw for k, v in tracer.self_times().items()}
        counts0 = tracer.counts()
        remaining = args.seconds - (time.perf_counter() - start)
        traced = runner.rounds(max(remaining, 0.0), tracer)
        counts1 = tracer.counts()
    finally:
        tracer.remove()

    n = len(traced)
    counts = {k: (v - counts0.get(k, 0)) / n for k, v in counts1.items()}
    for r in traced:
        for raw, norm, first, last in r.values():
            scale = norm / raw if raw > 0 else 1.0
            for k, v in tracer.self_times(first, last).items():
                layers[k] = layers.get(k, 0.0) + v * scale / n
    children = cli.traces if cli is not None else []
    for child in children:
        for k, v in child["self_s"].items():
            layers[k] = layers.get(k, 0.0) + v / n
        for k, v in child["counts"].items():
            counts[k] = counts.get(k, 0) + v / n

    metrics = {}
    for m in PER_LAYER:
        name = m["name"]
        if name == "pcgroup.fast_mult_per_s":
            value = fast
        elif name == "pcgroup.generic_mult_per_s":
            value = generic
        elif name == "trace.overhead_pct":
            value = 100.0 * (solve_s(traced) / solve_s(plain) - 1.0)
        elif name.endswith("_s"):
            value = layers.get(name[:-2], 0.0)
        else:
            value = counts.get(COUNT_SOURCES.get(name, name), 0)
        metrics[name] = {"value": value, "unit": m["unit"]}

    with open(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "traced_rounds": n,
                   "metrics": metrics, "cli_children": children, **tracer.dump()}, fh)
    return metrics, plain


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    import_program()
    os.makedirs(OUT_DIR, exist_ok=True)
    setups = cold_setup_s(args.workload, args.seed)
    clock = Clock()
    inputs = workloads.build_inputs(args.workload, args.seed)
    wl = workloads.WORKLOADS[args.workload](args.seed, inputs)
    runner = Runner(wl, clock)

    start = time.perf_counter()
    if args.trace:
        metrics, rounds = traced_layers(args, runner, clock, start)
    else:
        rounds = runner.rounds(args.seconds)
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "solve_s": {"value": solve_s(rounds), "unit": "s"},
            "peak_rss_mb": {"value": runner.peak_rss_kb / 1024.0, "unit": "MB"},
        }
    t_check = time.perf_counter()
    try:
        wl.post_check()
    except Exception as exc:
        runner.correct = False
        runner.errors.append(f"post-run check: {type(exc).__name__}: {exc}")

    for e in runner.errors:
        print(f"perfbench: {e}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "rounds": len(rounds),
        "round_wall_s": runner.round_walls,
        "post_check_s": time.perf_counter() - t_check,
        "raw_solve_s": solve_s(rounds, col=0),
        "op_s": {label: [round(r[label][1], 5) for r in rounds if label in r]
                 for label in rounds[0]},
        "setup_s_runs": setups,
        "ref_readings_s": {
            "n": len(clock.readings),
            "min": min(clock.readings),
            "median": statistics.median(clock.readings),
            "max": max(clock.readings),
        },
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": runner.correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
