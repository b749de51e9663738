#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload aci-packet --seed 1 --seconds 10 --trace 0

The benchmark is a Go program in this directory (its own module, which
imports the repository's packages through a replace directive). This
script builds it with the Go toolchain into .bench_build/ at the root,
keeping the build cache there too, then runs it with the given arguments
from the root. Everything it writes stays under .bench_build/. It exits
with the benchmark's status; if the build fails it exits non-zero without
printing a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOFLAGS": "-buildvcs=false -mod=readonly",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "GOENV": "off",
    })
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                           stdout=sys.stderr, stderr=sys.stderr, timeout=840)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    run = subprocess.run([binary] + sys.argv[1:], cwd=ROOT, timeout=175)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
