#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs every workload (or the ones named) repeatedly, each run with its own
seed, and prints for every end-to-end metric the median, the quartiles
and the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, and the failed operations summed over the runs (any
failed operation fails the check). With --sets 2 it repeats the whole set and also prints
how far the second median moved from the first, in the direction the
metric gets worse, against the same bound.

Usage (from the repository root):
    python3 perfbench/steady.py [--workloads a,b] [--runs 10] [--sets 1]
                                [--seconds S] [--seed0 1]
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if proc.returncode != 0 or not result.get("correct"):
        print(f"  {workload} seed {seed}: exit {proc.returncode}, "
              f"correct={result.get('correct')}", file=sys.stderr)
        return None
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, result["attempted"], result["failed"]


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1, choices=(1, 2))
    ap.add_argument("--seconds", type=int, default=0,
                    help="override run_seconds from BENCHMARK.json")
    ap.add_argument("--seed0", type=int, default=1)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = args.workloads.split(",")
    metrics = bench["end_to_end"]

    worst = 0.0
    failed_total = 0
    for w in names:
        sets = []
        attempted = failed = 0
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = args.seed0 + s * 1000 + i
                out = run_once(bench, w, seed, seconds)
                if out is not None:
                    r, a, f = out
                    attempted += a
                    failed += f
                    runs.append(r)
                    print(f"  {w} set {s + 1} seed {seed}: " + ", ".join(
                        f"{m['name']}={r[m['name']]:.6g}" for m in metrics)
                        + f", failed={f}", file=sys.stderr)
            sets.append(runs)
        failed_total += failed
        print(f"== {w} ({', '.join(str(len(r)) for r in sets)} good runs "
              f"of {args.runs} per set, {seconds}s each; "
              f"{failed} of {attempted} operations failed)")
        print(f"  {'metric':<24}{'median':>14}{'q1':>14}{'q3':>14}"
              f"{'spread':>9}{'bound':>7}{'/bound':>8}"
              + (f"{'shift':>9}" if args.sets == 2 else ""))
        for m in metrics:
            name, bound = m["name"], m["bound"]
            cols = []
            shift_col = ""
            meds = []
            for runs in sets:
                vals = [r[name] for r in runs]
                if len(vals) < 2:
                    cols = None
                    break
                q1, med, q3 = quartiles(vals)
                meds.append(med)
                cols.append((med, q1, q3))
            if cols is None:
                print(f"  {name:<24} too few good runs")
                continue
            med, q1, q3 = cols[0]
            spread = (q3 - q1) / med if med else float("inf")
            worst = max(worst, spread / bound)
            if args.sets == 2:
                sign = 1 if m["better"] == "lower" else -1
                shift = sign * (meds[1] - meds[0]) / meds[0]
                worst = max(worst, shift / bound)
                shift_col = f"{shift:>+9.3f}"
            print(f"  {name:<24}{med:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{spread:>9.3f}{bound:>7.2f}{spread / bound:>8.2f}"
                  + shift_col)
    print(f"worst spread or shift as a share of its bound: {worst:.2f}")
    return 0 if worst <= 1.0 and failed_total == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
