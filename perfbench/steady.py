"""Steadiness report: runs each workload of BENCHMARK.json ten times, with
seeds 1 to 10 and its run_seconds, and prints for every end-to-end metric
the median, the quartiles and the spread (q3 - q1) / median against the
metric's bound.

    python3 perfbench/steady.py
    python3 perfbench/steady.py --compare <first.json> <second.json>

--compare prints, for two stored sets, each metric's change of median
against its bound.

Every run's result is kept in perfbench/out/steady-<time>.json.  Raw
seconds and reference-loop readings of the same runs are printed too; they
are not gated.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

from groups import HERE, ROOT

SEEDS = range(1, 11)


def quartiles(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    return {"seed": seed, "wall_s": wall, "detail": json.loads(lines[-2])["detail"],
            "result": json.loads(lines[-1])}


def report(workload: str, runs, bench) -> None:
    print(f"\n### {workload}: {len(runs)} runs, seeds "
          f"{runs[0]['seed']}..{runs[-1]['seed']}")
    failed = {r["result"]["failed"] / r["result"]["attempted"] for r in runs}
    correct = all(r["result"]["correct"] for r in runs)
    print(f"correct in every run: {correct}; failed shares: {sorted(failed)}\n")
    print("| metric | median | q1 | q3 | spread | bound | spread / bound |")
    print("|---|---|---|---|---|---|---|")
    for m in bench["end_to_end"]:
        vals = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = quartiles(vals)
        spread = (q3 - q1) / med
        print(f"| {m['name']} ({m['unit']}) | {med:.4f} | {q1:.4f} | {q3:.4f} | "
              f"{spread:.3f} | {m['bound']} | {spread / m['bound']:.2f} |")
    raw = [r["detail"]["raw_solve_s"] for r in runs]
    ref = [r["detail"]["ref_readings_s"]["median"] for r in runs]
    for name, vals in (("raw solve (s)", raw), ("ref reading median (s)", ref)):
        q1, med, q3 = quartiles(vals)
        print(f"| {name}, not gated | {med:.4f} | {q1:.4f} | {q3:.4f} | "
              f"{(q3 - q1) / med:.3f} | - | - |")
    walls = [r["wall_s"] for r in runs]
    print(f"\nrun wall time: median {statistics.median(walls):.1f} s, max {max(walls):.1f} s; "
          f"rounds per run: {sorted(r['detail']['rounds'] for r in runs)}")


def compare(first_path: str, second_path: str, bench) -> None:
    with open(first_path, encoding="utf-8") as fh:
        first = json.load(fh)
    with open(second_path, encoding="utf-8") as fh:
        second = json.load(fh)
    print("| workload | metric | first median | second median | change | bound |")
    print("|---|---|---|---|---|---|")
    for workload in first:
        for m in bench["end_to_end"]:
            a, b = (statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                      for r in runs[workload]) for runs in (first, second))
            print(f"| {workload} | {m['name']} | {a:.4f} | {b:.4f} | {b / a - 1:+.3f} | "
                  f"{m['bound']} |")


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--compare", nargs=2, metavar="JSON")
    args = p.parse_args()
    if args.compare:
        compare(*args.compare, bench)
        return 0
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    out_path = os.path.join(HERE, "out", time.strftime("steady-%Y%m%dT%H%M%S.json"))
    everything = {}
    for w in bench["workloads"]:
        runs = []
        for seed in SEEDS:
            runs.append(run_once(w["name"], seed, bench["run_seconds"]))
            print(f"{w['name']} seed {seed}: {json.dumps(runs[-1]['result']['metrics'])}",
                  file=sys.stderr, flush=True)
        everything[w["name"]] = runs
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(everything, fh)
        report(w["name"], runs, bench)
    print(f"\nall runs: {os.path.relpath(out_path, ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
