#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The Go benchmark in this directory is built into .bench_build/ (the Go
build cache lives there too, so nothing is written outside the checkout)
and then run with the same arguments. Its last line of standard output
is the result JSON. A failed build exits non-zero without a result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")


def go_env():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOENV": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    return env


def build():
    env = go_env()
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    proc = subprocess.run(["go", "build", "-o", BINARY, "."], cwd=HERE, env=env,
                          stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    return proc.returncode


def main():
    try:
        code = build()
    except (OSError, subprocess.TimeoutExpired) as exc:
        print("perfbench: build failed: %s" % exc, file=sys.stderr)
        return 2
    if code != 0:
        print("perfbench: build failed (exit %d)" % code, file=sys.stderr)
        return 2
    sys.stdout.flush()
    proc = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
