#!/usr/bin/env python3
"""Build and run the host-performance benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload web-sendfile-256k --seed 42 --seconds 20 --trace 0

Every argument is passed on to the benchmark program. The program is built
from source into $CARGO_TARGET_DIR (default .bench_build), with the Go build
cache under the same directory, so nothing is written outside the checkout.
The exit code is the benchmark's: 0 when every output passed its check.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "go.mod"))
            and os.path.isdir(os.path.join(root, "internal"))):
        print("perfbench: run from the root of a full checkout "
              "(go.mod and internal/ are missing here)", file=sys.stderr)
        return 2
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ,
               GOCACHE=os.path.join(out, "go-cache"),
               GOMODCACHE=os.path.join(out, "go-mod"),
               GOPATH=os.path.join(out, "go-path"),
               GOTOOLCHAIN="local",
               GOWORK="off",
               # The go command keeps its settings and usage counters
               # under the user config directory; keep them in the checkout.
               XDG_CONFIG_HOME=os.path.join(out, "config"))
    binary = os.path.join(out, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."],
                           cwd=os.path.join(root, "perfbench"), env=env,
                           stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = ["--commit", commit(root), "--out", os.path.join(out, "results")]
    return subprocess.run([binary] + args + sys.argv[1:], env=env).returncode


def commit(root):
    """Returns the checkout's commit, or "unknown" outside a git work tree."""
    if not os.path.exists(os.path.join(root, ".git")):
        return "unknown"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True)
    except OSError:
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


if __name__ == "__main__":
    sys.exit(main())
