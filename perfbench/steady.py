#!/usr/bin/env python3
"""Steadiness and A/B runs of the benchmark, each run in a fresh process.

    python3 perfbench/steady.py [--runs N] [--seconds S] [--seed-base B]
                                [--workloads w1,w2] [--trace] [--same-seed]
                                [--b OTHER_CHECKOUT]

Without --b, runs every workload N times in this checkout, one seed per
run (B, B+1, ...), and prints for each metric its median, quartiles and
min/max, and the spread (third minus first quartile over the median)
against the bound in BENCHMARK.json. With --same-seed every run uses seed
B, and the counts that depend only on the seed must agree exactly.

With --b, OTHER_CHECKOUT is a second build (another checkout of the
repository, e.g. made with `git archive`). Runs alternate A-B, B-A, ...
with the same seed inside each pair; the table adds B's median and how
often A beat B. Each checkout builds into its own perfbench/target.

Run it from the repository root. It exits non-zero if a run fails, the
failed share differs between runs, a same-seed count differs, or (single
build) a spread exceeds its bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# End-to-end metrics that depend only on the workload and the seed.
SEEDED = {"get_hits", "app_mb_per_s"}


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    env = dict(os.environ, CARGO_TARGET_DIR=str(checkout / "perfbench" / "target"))
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    done = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"{checkout} {workload} seed {seed} failed:\n{done.stderr[-2000:]}")
    return json.loads(lines[-1])


def summary(values: list) -> tuple:
    q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    med = statistics.median(values)
    return med, q1, q3, min(values), max(values)


def beats(a: float, b: float, better: str) -> bool:
    return a < b if better == "lower" else a > b


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--workloads")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--b", type=Path, help="second checkout to compare against")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["per_layer" if args.trace else "end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    sides = [("A", ROOT)] + ([("B", args.b.resolve())] if args.b else [])
    ok = True

    for workload in workloads:
        results = {name: [] for name, _ in sides}
        for i in range(args.runs):
            seed = args.seed_base if args.same_seed else args.seed_base + i
            order = sides if i % 2 == 0 else sides[::-1]
            for name, checkout in order:
                results[name].append(run_once(checkout, workload, seed, seconds, args.trace))
            print(f"{workload}: run {i + 1}/{args.runs} done", file=sys.stderr)

        print(f"\n== {workload} ({args.runs} runs, {seconds} s each)")
        for name, runs in results.items():
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"{name}: failed share {sorted(shares)}; attempted "
                  f"{min(r['attempted'] for r in runs)}..{max(r['attempted'] for r in runs)}")
            if len(shares) != 1:
                print(f"{name}: the failed share differs between runs")
                ok = False
        head = f"{'metric':<36} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14} {'spread':>7}"
        print(head + ("   bound" if not args.b else f" {'B median':>14} {'A beat B':>9}"))
        for metric, m in metrics.items():
            a = [r["metrics"][metric]["value"] for r in results["A"]]
            med, q1, q3, lo, hi = summary(a)
            spread = (q3 - q1) / med if med else 0.0
            row = f"{metric:<36} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {lo:>14.6g} {hi:>14.6g} {spread:>7.2%}"
            if args.b:
                b = [r["metrics"][metric]["value"] for r in results["B"]]
                wins = sum(beats(x, y, m["better"]) for x, y in zip(a, b))
                row += f" {statistics.median(b):>14.6g} {wins:>4}/{len(a)}"
            elif "bound" in m:
                over = spread > m["bound"]
                row += f" {m['bound']:>7.2%}{'  OVER' if over else ''}"
                ok &= not over
            print(row)
            seeded = metric in SEEDED or (args.trace and m["unit"] == "count")
            if args.same_seed and seeded and len(set(a)) != 1:
                print(f"   {metric}: same seed, different values {sorted(set(a))}")
                ok = False
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
