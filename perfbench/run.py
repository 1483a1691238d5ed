#!/usr/bin/env python3
"""Build the HaoCL benchmark from source and run one workload.

    python3 perfbench/run.py --workload tile-stream --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout. The Go toolchain's cache, temporary
files and the benchmark binary all stay under .bench_build/ in the checkout.
Every argument is passed to the benchmark (see perfbench/main.go); its last
line of output is the JSON result. A failed build or run exits non-zero
without printing a result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 840  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOMODCACHE=os.path.join(BUILD, "gomodcache"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOFLAGS="",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    for key in ("GOCACHE", "GOMODCACHE", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=BENCH, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S,
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:] + ["--out", os.path.join(BUILD, "perfbench")]
    try:
        return subprocess.run([BINARY] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
