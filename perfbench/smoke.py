#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke.py

Run it from the root of a checkout. For every workload in BENCHMARK.json
it makes one tiny-window run untraced (--trace 0) and one traced
(--trace 1), and checks that:

  - the result line is valid and marked correct;
  - every end-to-end metric (untraced) and every per-layer metric
    (traced) BENCHMARK.json names is printed, with its unit, and nothing
    else;
  - the traced run's simulated counts equal the untraced run's.

It also checks that an unknown workload fails without a result line.
Exits 0 when every check passes.
"""

import json
import os
import subprocess
import sys

WINDOW = ["--window-ms", "200", "--warmup-ms", "100", "--seconds", "0.1"]


def run(workload, trace, extra=WINDOW):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "1", "--trace", str(trace)]
    return subprocess.run(cmd + extra, capture_output=True, text=True,
                          timeout=600)


def counts_line(stdout):
    lines = [l for l in stdout.splitlines() if l.startswith("counts:")]
    return lines[0] if len(lines) == 1 else None


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    errors = []

    def check(ok, msg):
        if not ok:
            errors.append(msg)
        return ok

    for w in spec["workloads"]:
        name = w["name"]
        outs = {}
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            p = run(name, trace)
            where = "%s --trace %d" % (name, trace)
            if not check(p.returncode == 0, "%s: exit %d\n%s"
                         % (where, p.returncode, p.stderr[-2000:])):
                continue
            result = json.loads(p.stdout.strip().splitlines()[-1])
            check(set(result) == {"correct", "attempted", "failed",
                                  "metrics"}, where + ": result keys")
            check(result["correct"] is True, where + ": not correct")
            check(result["attempted"] >= 1, where + ": nothing attempted")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == want, "%s: metrics/units differ from BENCHMARK.json:"
                  " missing %s, unexpected %s, unit mismatches %s"
                  % (where, sorted(set(want) - set(got)),
                     sorted(set(got) - set(want)),
                     sorted(k for k in want if k in got
                            and got[k] != want[k])))
            outs[trace] = counts_line(p.stdout)
            check(outs[trace] is not None, where + ": no counts line")
        if len(outs) == 2:
            check(outs[0] == outs[1],
                  "%s: traced counts differ from untraced:\n  %s\n  %s"
                  % (name, outs[0], outs[1]))
        print("%-14s %s" % (name, "ok" if not errors else "checked"))

    p = run("no-such-workload", 0)
    check(p.returncode != 0, "unknown workload exited 0")
    check(not any(l.startswith("{") for l in p.stdout.splitlines()),
          "unknown workload printed a result line")

    for e in errors:
        print("FAIL: " + e)
    print("smoke: %s" % ("FAILED" if errors else "ok"))
    sys.exit(1 if errors else 0)


if __name__ == "__main__":
    main()
