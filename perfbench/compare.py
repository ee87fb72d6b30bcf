#!/usr/bin/env python3
"""Steadiness and A/B comparison for the repository benchmark.

Runs the benchmark command of BENCHMARK.json in one or two checkouts, over
a list of seeds per workload, and prints each end-to-end metric's median and
quartiles per workload and set.

    python3 perfbench/compare.py [--seeds 1,2,3,4,5] [--workloads a,b] DIR
    python3 perfbench/compare.py [--seeds ...] BASE_DIR CHANGED_DIR

With one checkout it runs two sets of the same code; with two it runs one
set of each, alternating which side runs first. A metric whose spread
(interquartile range over median) exceeds its bound is UNRESOLVED; a second
set whose median is worse than the first's by more than the bound is
flagged REGRESSED. Raw results go to .perfbench_out/compare-<time>.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def run_once(checkout, bench, workload, seed):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", "0",
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(os.path.abspath(checkout), ".bench_build"))
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{checkout}: {workload} seed {seed}: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(metric, base, new):
    """Relative worsening of `new` against `base` (positive = worse)."""
    if base == 0:
        return float("inf")
    change = (new - base) / base
    return change if metric["better"] == "lower" else -change


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkouts", nargs="+", help="one checkout (two sets) or two (base, changed)")
    ap.add_argument("--seeds", default="1,2,3,4,5,6,7,8,9,10")
    ap.add_argument("--workloads", default="", help="comma-separated; default all")
    args = ap.parse_args()
    if len(args.checkouts) > 2:
        ap.error("give one or two checkouts")

    sides = args.checkouts if len(args.checkouts) == 2 else args.checkouts * 2
    with open(os.path.join(sides[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    seeds = [int(s) for s in args.seeds.split(",")]
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]

    raw = {w: [[], []] for w in workloads}
    for w in workloads:
        for i, seed in enumerate(seeds):
            order = (0, 1) if i % 2 == 0 else (1, 0)
            for side in order:
                raw[w][side].append(run_once(sides[side], bench, w, seed))
                print(f"  {w} seed {seed} set {'AB'[side]} done", file=sys.stderr)

    os.makedirs(".perfbench_out", exist_ok=True)
    out = os.path.join(".perfbench_out", f"compare-{int(time.time())}.json")
    with open(out, "w") as f:
        json.dump({"checkouts": sides, "seeds": seeds, "runs": raw}, f, indent=1)

    flagged = 0
    for w in workloads:
        print(f"\n{w}  (A = {sides[0]}, B = {sides[1]}, {len(seeds)} seeds)")
        print(f"{'metric':<20} {'bound':>6} {'A q1/med/q3':>32} {'spread':>7} "
              f"{'B q1/med/q3':>32} {'spread':>7} {'B vs A':>8}  verdict")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = [r[name] for r in raw[w][0]]
            b = [r[name] for r in raw[w][1]]
            qa, qb = quartiles(a), quartiles(b)
            sa, sb = spread(a), spread(b)
            delta = worse_by(metric, qa[1], qb[1])
            verdict = "ok"
            if max(sa, sb) > bound:
                verdict = "UNRESOLVED"
            elif delta > bound:
                verdict = "REGRESSED"
            elif max(sa, sb) > bound / 3:
                verdict = "ok (spread above bound/3)"
            flagged += verdict in ("UNRESOLVED", "REGRESSED")
            fmt = lambda q: f"{q[0]:.4g}/{q[1]:.4g}/{q[2]:.4g}"
            print(f"{name:<20} {bound:>6.2f} {fmt(qa):>32} {sa:>7.3f} {fmt(qb):>32} {sb:>7.3f} "
                  f"{delta:>+8.3f}  {verdict}")
    print(f"\nraw results: {out}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
