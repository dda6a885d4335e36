#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark itself.

For every workload, at `--scale tiny`:
  * an untraced run prints every end-to-end metric of BENCHMARK.json
    with its declared unit and a finite value, and a traced run every
    per-layer metric;
  * two untraced runs with the same seed give identical counts
    (off-chip reads and writes per op, failed_frac, and the
    first-failure load where the workload reports one) on the
    single-client workloads;
  * a run with a deliberately wrong expected value reports
    "correct": false and exits non-zero.

Usage (from the repository root):
    python3 perfbench/selftest.py
Exits 0 when every check passes.
"""
import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.abspath(__file__)) + "/.."
SEED = 7
# Workloads whose counts must repeat exactly for a seed: one client
# thread and op-counted maintenance.
DETERMINISTIC = {"lookup_batch_dram", "churn_logged_l2"}
COUNTS = ["offchip_reads_per_op", "offchip_writes_per_op"]


def run(bench, workload, trace, *extra):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(SEED),
                              "--seconds", "1", "--trace", str(trace),
                              "--scale", "tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc, result, proc.stdout


def printed(res, m):
    """Whether result `res` holds metric `m` with its unit and a finite
    number as its value."""
    got = res["metrics"].get(m["name"])
    return (got is not None and got["unit"] == m["unit"]
            and isinstance(got["value"], (int, float))
            and math.isfinite(got["value"]))


def reason(ok, proc):
    """The run's last stderr line, for a failed check."""
    if ok:
        return ""
    tail = proc.stderr.strip().splitlines()[-1:]
    return f" ({tail[0]})" if tail else f" (exit {proc.returncode})"


def info_value(stdout, name):
    m = re.search(rf"^# {name} ([0-9.eE+-]+)", stdout, re.M)
    return m and float(m.group(1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    failures = []

    def check(ok, what):
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    for w in [x["name"] for x in bench["workloads"]]:
        runs = []
        for _ in range(2):
            proc, res, out = run(bench, w, 0)
            ok = proc.returncode == 0 and res is not None and res["correct"]
            check(ok, f"{w}: untraced run is correct" + reason(ok, proc))
            runs.append((res if ok else None, out))
        res, out = runs[0]
        if res:
            for m in bench["end_to_end"]:
                check(printed(res, m), f"{w}: prints {m['name']} in {m['unit']}")
        if w in DETERMINISTIC and all(r for r, _ in runs):
            (a, out_a), (b, out_b) = runs
            for c in COUNTS:
                check(a["metrics"][c]["value"] == b["metrics"][c]["value"],
                      f"{w}: {c} repeats for seed {SEED}")
            for name in ("failed_frac", "first_failure_load"):
                v = info_value(out_a, name)
                if v is not None:
                    check(v == info_value(out_b, name),
                          f"{w}: {name} repeats for seed {SEED}")

        proc, res, _ = run(bench, w, 1)
        ok = proc.returncode == 0 and res is not None and res["correct"]
        check(ok, f"{w}: traced run is correct" + reason(ok, proc))
        if ok:
            for m in bench["per_layer"]:
                check(printed(res, m),
                      f"{w}: traced run prints {m['name']} in {m['unit']}")

        proc, res, _ = run(bench, w, 0, "--corrupt-expected")
        check(proc.returncode != 0 and res is not None and not res["correct"],
              f"{w}: a wrong expected value fails the run")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
