#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Builds perfbench/main.exe with dune (the first run in a fresh checkout
compiles the simulator) and runs it with the same arguments.  Build
output goes to stderr; main.exe's stdout passes through unchanged, so
the last stdout line is its JSON result.  Exits non-zero, without a
result, when the checkout lacks the simulator sources or the build
fails.  See perfbench/README.md.
"""

import glob
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def find_dune():
    found = shutil.which("dune")
    if found:
        return found
    prefix = os.environ.get("OPAM_SWITCH_PREFIX")
    candidates = [os.path.join(prefix, "bin", "dune")] if prefix else []
    candidates += sorted(glob.glob(os.path.expanduser("~/.opam/*/bin/dune")))
    for c in candidates:
        if os.access(c, os.X_OK):
            return c
    return None


def main(argv):
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            print(f"run.py: {needed} missing; run from the root of a full "
                  "source checkout", file=sys.stderr)
            return 2
    dune = find_dune()
    if dune is None:
        print("run.py: dune not found on PATH", file=sys.stderr)
        return 2
    # The shared dune cache lives outside the checkout: keep it off.
    build = subprocess.run(
        [dune, "build", "--root", ".", "--cache=disabled",
         "./perfbench/main.exe"],
        stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return 1
    exe = os.path.join("_build", "default", "perfbench", "main.exe")
    run = subprocess.run([exe] + argv, timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
