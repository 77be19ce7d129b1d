#!/usr/bin/env python3
"""Builds the Kimbap benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <powerlaw-cc|road-cc|serve-mix> \
        --seed N --seconds S --trace 0|1

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
depends on the workspace crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build) and run with the same arguments;
generated inputs and traces go to perfbench/out. The last line of standard
output is the result JSON. The exit code is the benchmark's: 0 when every
output was correct, non-zero on a wrong output or a failed build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def capture(cmd):
    """The first line a command prints, or 'unknown' if it cannot run."""
    try:
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    exe = os.path.join(target, "release", "perfbench")
    cmd = [exe, *sys.argv[1:],
           "--out-dir", os.path.join(HERE, "out"),
           "--git-sha", capture(["git", "rev-parse", "HEAD"]),
           "--rustc", capture(["rustc", "-V"])]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
