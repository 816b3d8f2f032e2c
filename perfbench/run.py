#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/bench.exe from
source with dune into .bench_build/ (release profile, dune's shared cache
off, so nothing is written outside the checkout), then runs it with the
same arguments. The benchmark prints a human-readable report and, as
its last stdout line, one JSON object with the keys correct, attempted,
failed and metrics. Any failure -- a build error, a correctness-gate
failure, a timeout -- exits non-zero without printing that line.

Workloads: ycsb-mc, tpcc, sql-scan-open, world25-part (BENCHMARK.json
records why each one is there). The default seed is 1; seed 2026 is
held out: no tuning of the benchmark used it, so a later claim can be
checked on it as well. --window-ms/--warmup-ms shrink the
simulated windows; only the smoke test (perfbench/smoke.py) uses them.
"""

import argparse
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "bench.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
DEFAULT_SEED = 1


def die(msg, code=2):
    print("run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--window-ms", type=int)
    ap.add_argument("--warmup-ms", type=int)
    args = ap.parse_args()

    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        die("run from the root of a repository checkout "
            "(dune-project and lib/ not found here)")

    # dune writes its progress to stderr, keeping stdout for the report.
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
             "--profile", "release", "--cache", "disabled",
             "./perfbench/bench.exe"],
            stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune not found on PATH")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if build.returncode != 0:
        die("build failed", build.returncode)

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.window_ms is not None:
        cmd += ["--window-ms", str(args.window_ms)]
    if args.warmup_ms is not None:
        cmd += ["--warmup-ms", str(args.warmup_ms)]
    sys.stdout.flush()
    try:
        run = subprocess.run(cmd, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("benchmark timed out after %d s" % RUN_TIMEOUT_S, 1)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
