#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the repository root:

    python3 perfbench/run.py --workload serve --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --write-golden 1

The build is dune's release profile, in the repository's own _build
directory, with dune's shared cache off so nothing is written outside
the checkout. The benchmark's exit code is passed through; a failed
build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

TARGET = "perfbench/bench.exe"


def main():
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--display", "quiet", TARGET],
        stdout=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    return subprocess.run(
        [os.path.join("_build", "default", TARGET)] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
