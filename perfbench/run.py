#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage (from the repository root):
    python3 perfbench/run.py --workload churn_logged_l2 --seed 1 --seconds 10 --trace 0

Every argument is passed through to the benchmark binary. The build
honours CARGO_TARGET_DIR and defaults to perfbench/target. The last line
of standard output is the result object; build output goes to stderr.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build():
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        return None
    return os.path.join(os.path.abspath(target), "release", "perfbench")


def main():
    exe = build()
    if exe is None or not os.path.exists(exe):
        print("perfbench: build failed", file=sys.stderr)
        return 2
    proc = subprocess.run([exe] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
