#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload storm_tcp --seed 1 --seconds 20 --trace 0

The Go program is built from source into .bench_build/ (its build cache
included), then run with the given arguments. Its standard output is
passed through; the last line is the JSON result. Exits non-zero, with
no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def go_env():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        TMPDIR=tmp,
        GOTMPDIR=tmp,
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOENV="off",
        GOFLAGS="-mod=readonly",
        GOPROXY="off",
        GOSUMDB="off",
        GOTOOLCHAIN="local",
        GOWORK="off",
    )
    return env


def main():
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=go_env(), timeout=BUILD_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print(f"perfbench: build failed:\n{build.stdout}", file=sys.stderr)
        return 1
    cmd = [BINARY, *sys.argv[1:], "--root", ROOT,
           "--out", os.path.join(BUILD, "perfbench", "reports")]
    try:
        # run() kills the child on timeout and waits for it to end.
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode or 0
    except subprocess.TimeoutExpired:
        print(f"perfbench: run passed {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
