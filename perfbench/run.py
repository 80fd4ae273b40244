#!/usr/bin/env python3
"""Build the Coign benchmark from source and run it.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The library and the benchmark build
with dune into .bench_build/ (the dune cache is disabled, so nothing is
written outside the checkout); traced runs write their spans and
self-time tables to .bench_out/. The arguments pass through to
coignbench, whose last line of output is the JSON result. Exits non-zero
without printing a result when the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
TARGET = "./perfbench/coignbench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        built = subprocess.run(
            ["dune", "build", "--root", ROOT, "--build-dir", BUILD,
             "--display", "quiet", TARGET],
            stdout=sys.stderr, stderr=sys.stderr, env=env)
    except OSError as e:
        print(f"run.py: cannot run dune: {e}", file=sys.stderr)
        return 1
    if built.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(BUILD, "default", "perfbench", "coignbench.exe")
    args = sys.argv[1:]
    if "--out" not in args:
        args += ["--out", os.path.join(ROOT, ".bench_out")]
    sys.stdout.flush()
    return subprocess.run([exe] + args, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
