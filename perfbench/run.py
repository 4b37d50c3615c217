#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/main.exe with dune (the
first run in a fresh checkout compiles the program's libraries too), then
runs it with the same arguments; the last line of stdout is the JSON result.
Build output goes to stderr.  Exits non-zero without printing a result when
the checkout lacks the program's sources or the build fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    for need in ("dune-project", "lib"):
        if not os.path.exists(os.path.join(ROOT, need)):
            print(f"perfbench: {need} missing: {ROOT} is not a checkout of the program",
                  file=sys.stderr)
            return 2
    # keep every build artefact inside the checkout: no shared dune cache
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/main.exe", "./perfbench/calib.exe"],
            cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print(f"perfbench: build failed with code {build.returncode}", file=sys.stderr)
        return 2
    try:
        run = subprocess.run([EXE] + sys.argv[1:], cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
