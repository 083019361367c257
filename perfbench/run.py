#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/perfbench.exe from
source with dune (the shared dune cache is switched off, so the build writes
only to _build/ in the checkout), then runs the benchmark with the same
arguments.  The benchmark's last line on standard output is the result JSON;
build output goes to standard error.  Exit codes: the benchmark's own (0 ok,
1 a correctness check failed, 2 bad arguments), 2 when the sources are
missing or the build fails, 3 on a timeout.
"""

import os
import subprocess
import sys
import time

BUILD_LIMIT_S = 840  # a first build from a clean checkout
RUN_LIMIT_S = 170  # one benchmark run, set-up included
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root: no dune-project or lib/ here",
              file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    start = time.monotonic()
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=BUILD_LIMIT_S)
    except FileNotFoundError:
        print("perfbench: dune is not on PATH", file=sys.stderr)
        return 2
    except subprocess.TimeoutExpired:
        print("perfbench: build timed out", file=sys.stderr)
        return 3
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    # A first build may use most of the time a first run is allowed.
    limit = min(RUN_LIMIT_S, BUILD_LIMIT_S + 50 - (time.monotonic() - start))
    proc = subprocess.Popen([EXE] + sys.argv[1:], env=env)
    try:
        return proc.wait(timeout=limit)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
