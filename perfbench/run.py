#!/usr/bin/env python3
"""Build the benchmark from the sources of this checkout, then run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

All arguments go to the benchmark binary (perfbench/bench.ml), which
prints its metrics and, as the last line of standard output, one JSON
result.  A failed build exits with status 1 and prints no result.
"""

import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TARGET = "./perfbench/bench.exe"


def dune():
    found = shutil.which("dune")
    if found:
        return [found]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    return None


def main():
    cmd = dune()
    if cmd is None:
        sys.stderr.write("run.py: dune is not installed\n")
        return 1
    build = subprocess.run(
        cmd + ["build", "--root", ROOT, TARGET],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        sys.stderr.write("run.py: building the benchmark failed\n")
        return 1
    exe = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
    os.chdir(ROOT)
    # The binary replaces this process: nothing is left running after it.
    os.execv(exe, [exe] + sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
