#!/usr/bin/env python3
"""Self-test of the client-path benchmark.

Runs every workload at tiny scale, untraced and traced, and checks that
each metric BENCHMARK.json names is printed with its unit; then runs the
negative control: a wall budget too short to finish must report failed
ops and a non-zero exit.  Run from the root of a checkout:

    python3 perfbench/selftest.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Ops per client: tiny, except that the failover workload must still be
# running when p0 is killed and restarted (its default).
TINY_OPS = {"failover-n4-tcp": "60"}


def bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--seconds", "0",
         "--seed", "7", *args],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    detail = json.loads(lines[-2]) if len(lines) > 1 else None
    return proc.returncode, detail, result, proc.stderr


def check_metrics(result, expected, label):
    problems = []
    got = result["metrics"]
    for name, unit in expected.items():
        if name not in got:
            problems.append("%s: metric %s missing" % (label, name))
        elif got[name].get("unit") != unit:
            problems.append("%s: %s has unit %r, expected %r"
                            % (label, name, got[name].get("unit"), unit))
        elif not isinstance(got[name].get("value"), (int, float)):
            problems.append("%s: %s has no numeric value" % (label, name))
    for name in got:
        if name not in expected:
            problems.append("%s: unexpected metric %s" % (label, name))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}

    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, expected in (("0", e2e), ("1", layers)):
            label = "%s --trace %s" % (workload, trace)
            code, detail, result, err = bench("--workload", workload,
                                              "--trace", trace,
                                              "--ops",
                                              TINY_OPS.get(workload, "3"))
            if code != 0 or result is None or not result["correct"]:
                problems.append("%s: exit %d, detail %s, stderr %s"
                                % (label, code, detail, err[-500:]))
                continue
            if result["failed"] != 0 or result["attempted"] < 1:
                problems.append("%s: attempted %s failed %s" % (
                    label, result["attempted"], result["failed"]))
            problems += check_metrics(result, expected, label)
            print("ok   %s (%d metrics, %d runs)" % (
                label, len(result["metrics"]), detail["runs"]), flush=True)

    # Negative control: 30 ms of wall clock cannot certify 4 x 60 ops.
    code, detail, result, _ = bench("--workload", "failover-n4-tcp",
                                    "--budget-ms", "30")
    if code == 0 or result is None or result["correct"] or \
            result["failed"] == 0 or detail["failed_ratio"] <= 0:
        problems.append("negative control not flagged: exit %d, result %s"
                        % (code, result))
    else:
        print("ok   negative control (failed_ratio %.3f, exit %d)"
              % (detail["failed_ratio"], code))

    for p in problems:
        print("FAIL " + p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
