#!/usr/bin/env python3
"""Build the benchmark from the checkout's sources and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It builds perfbench/perfbench.exe with
dune (into _build), stamps the run with the source revision, and runs the
executable, whose last line of output is the result.  It exits non-zero,
without a result, when the build fails.
"""

import hashlib
import os
import subprocess
import sys

BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 175
EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")


def revision():
    """The git revision when the checkout is a repository, else a hash of
    the sources the benchmark is built from."""
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            return r.stdout.strip()
    h = hashlib.sha1()
    for top in ("dune-project", "lib", "perfbench"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        print("perfbench: run from the repository root (no dune-project or lib/ here)",
              file=sys.stderr)
        return 2
    build = subprocess.run(["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
                           stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    run = subprocess.run([EXE] + sys.argv[1:] + ["--rev", revision()], timeout=RUN_TIMEOUT_S)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
