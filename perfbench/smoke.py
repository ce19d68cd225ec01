#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at toy sizes.

    python3 perfbench/smoke.py

For every workload of BENCHMARK.json it runs the benchmark for one
second at toy scale, untraced and traced, and checks that the run
passes and prints every metric BENCHMARK.json names with its unit, both
in the JSON result and on a human-readable line.  It then runs every
workload again with one answer corrupted on purpose (--inject-wrong)
and checks that the corruption is counted: a non-zero exit, a failed
count of at least one and a positive failed_ratio.  Exit status 0 means
every check held.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--scale", "toy", *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=600)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return p.returncode, p.stdout, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []

    def check(ok, what):
        if not ok:
            problems.append(what)
            print("FAIL", what, flush=True)

    for w in spec["workloads"]:
        name = w["name"]
        for trace, metrics in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            code, out, result = run(name, trace)
            where = f"{name} --trace {trace}"
            check(code == 0, f"{where}: exit code {code}")
            if result is None:
                check(False, f"{where}: no JSON result line")
                continue
            check(result["correct"] is True, f"{where}: not correct")
            check(result["failed"] == 0, f"{where}: {result['failed']} failed")
            check(result["attempted"] >= 1, f"{where}: nothing attempted")
            check(set(result["metrics"]) == {m["name"] for m in metrics},
                  f"{where}: metric names differ from BENCHMARK.json")
            for m in metrics:
                got = result["metrics"].get(m["name"])
                check(got is not None and got["unit"] == m["unit"],
                      f"{where}: {m['name']} missing or not in {m['unit']}")
                line = re.search(r"^\s+%s\s+\S+\s+%s\s+n=\d+$"
                                 % (re.escape(m["name"]), re.escape(m["unit"])),
                                 out, re.M)
                check(line is not None,
                      f"{where}: {m['name']} not printed with its unit")
            print(f"ok {where}", flush=True)

        code, out, result = run(name, 0, ["--inject-wrong"])
        where = f"{name} --inject-wrong"
        check(code != 0, f"{where}: exit code 0")
        check(result is not None and result["failed"] >= 1
              and result["correct"] is False,
              f"{where}: the wrong answer was not counted")
        ratio = re.search(r"^failed_ratio = ([0-9.]+)", out, re.M)
        check(ratio is not None and float(ratio.group(1)) > 0,
              f"{where}: failed_ratio not above 0")
        print(f"ok {where}", flush=True)

    if problems:
        print(f"{len(problems)} problem(s)")
        return 1
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
