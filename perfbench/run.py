#!/usr/bin/env python3
"""Build the benchmark from this checkout's source and run one workload.

    python3 perfbench/run.py --workload node-region-hot --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. Everything the build and the run write
stays under .bench_build/ in that checkout: the Go build cache, the
binary, the stores of the in-process servers and the trace files. The
last line of standard output is the JSON result; see README.md.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(BUILD, "perfbench")
BINARY = os.path.join(OUT, "perfbench")
RUN_TIMEOUT = 170  # seconds; a run that hangs is killed and fails


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOMODCACHE": os.path.join(BUILD, "gomodcache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "XDG_CACHE_HOME": os.path.join(BUILD, "cache"),
        "GOFLAGS": "-mod=readonly",
        "GOPROXY": "off",
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    os.makedirs(OUT, exist_ok=True)
    build = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=os.path.join(ROOT, "perfbench"), env=go_env(), stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    cmd = [BINARY, "-workdir", OUT] + sys.argv[1:]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT).returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
