#!/usr/bin/env python3
"""Build and run the geoplace benchmark for one workload.

    python3 perfbench/run.py --workload paper_day --seed 1 --seconds 55 --trace 0

Run from the repository root. Builds perfbench/ (which compiles the library
from src/) in Release mode into .bench_build/ (or $CARGO_TARGET_DIR), runs
the statistics self-test, then the benchmark binary with the pool lane count
set here (GEOPLACE_THREADS = min(4, cpus)). Its last stdout line is the
result object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --self-test

builds and runs only the self-tests (C++ order statistics and spread.py).
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAX_LANES = 4
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")),
                        "perfbench")


def build():
    """Configures and builds perfbench; returns the build directory."""
    out = build_dir()
    jobs = str(max(1, min(MAX_LANES, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout carries only benchmark output.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return out


def source_id():
    """Digest of the library sources, so results identify the code measured
    even where no git metadata exists."""
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs.sort()
        for name in sorted(files):
            path = os.path.join(base, name)
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()[:16]


def self_test(out):
    subprocess.run([os.path.join(out, "perfbench_selftest")], check=True,
                   stdout=sys.stderr, timeout=60)
    subprocess.run([sys.executable, os.path.join(HERE, "spread.py"), "--self-test"],
                   check=True, stdout=sys.stderr, timeout=60)


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and (args.workload is None or args.seed is None or
                               args.seconds is None or args.trace is None):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("library sources (src/) not found next to perfbench/")
        return 1

    out = build()
    self_test(out)
    if args.self_test:
        return 0

    env = dict(os.environ)
    env["GEOPLACE_THREADS"] = str(max(1, min(MAX_LANES, os.cpu_count() or 1)))
    command = [os.path.join(out, "perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace),
               "--source-id", source_id()]
    try:
        done = subprocess.run(command, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {RUN_TIMEOUT_S} s")
        return 1
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        log(f"benchmark exited with {done.returncode}")
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("result line has unexpected keys")
        return 1
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (RuntimeError, subprocess.CalledProcessError) as error:
        log(str(error))
        sys.exit(1)
