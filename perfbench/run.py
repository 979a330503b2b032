#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

Run from the root of a checkout:

    python3 perfbench/run.py --workload wire_closed --seed 1 --seconds 10 --trace 0

It configures and builds perfbench/ (which compiles the dvbp libraries from
src/) as a Release build under $CARGO_TARGET_DIR, or .bench_build when that
is unset, then runs one workload. The build log goes to stderr; stdout ends
with the benchmark's one-line JSON result. Scratch files (traces, journals)
live under <build dir>/tmp and are removed by the benchmark; traced runs
leave their spans under <build dir>/spans.
"""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("replay_dense", "wire_open", "wire_closed")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def open_loop_rate():
    """wire_open's fixed rate, stored in its BENCHMARK.json description."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    for workload in spec.get("workloads", []):
        if workload.get("name") == "wire_open":
            match = re.search(r"at (\d+) ops/s", workload.get("why", ""))
            if match:
                return int(match.group(1))
    fail("BENCHMARK.json gives no 'at <N> ops/s' rate for wire_open")


def source_digest():
    """SHA-256 over the sources the benchmark builds; the checkout need not
    be a git repository, so this identifies the code when no commit does."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()


def commit_id():
    # The ceiling keeps git from searching above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10,
                             env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "--target", "perfbench", "-j4"],
    ]
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree at %s: run from a full checkout" % ROOT)
    rate = open_loop_rate()

    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                   ".bench_build"))
    binary = build(build_dir)
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--rate", str(rate),
        "--repo-root", ROOT,
        "--span-dir", os.path.join(build_dir, "spans"),
        "--commit", commit_id(),
        "--source-sha256", source_digest(),
    ]
    sys.stdout.flush()
    result = subprocess.run(cmd, env=dict(os.environ, TMPDIR=tmp_dir),
                            cwd=ROOT)
    sys.exit(result.returncode)


if __name__ == "__main__":
    main()
