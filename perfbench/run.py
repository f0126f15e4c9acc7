#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout, makes the warm rule
cache for that build, and runs one measured workload.

    python3 perfbench/run.py --workload compile-suite|synth-cold|serve-mixed \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout. Everything it writes goes under
$CARGO_TARGET_DIR (default .bench_build) in the checkout: the CMake
build, and one state directory per benchmark binary (keyed by the
binary's SHA-256) holding the rule cache synthesized by that binary,
the deterministic counters of earlier runs, and trace files. A cache is
therefore never shared between two builds of different code.

The last line of stdout is the binary's JSON result; build and progress
output go to stderr.
"""

import argparse
import hashlib
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-suite", "synth-cold", "serve-mixed")


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def run_quiet(command):
    """Runs a build step with its output on stderr; False on failure."""
    result = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr)
    return result.returncode == 0


def build(build_dir):
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"]):
            return None
    if not run_quiet(["cmake", "--build", build_dir, "-j", jobs]):
        return None
    binary = os.path.join(build_dir, "perfbench")
    return binary if os.path.exists(binary) else None


def sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def binary_env():
    """The binary's environment: any eqsat or synthesis call left at the
    library's default thread count runs on one thread as well (see
    kEqSatThreads in common.h)."""
    env = dict(os.environ)
    env["ISARIA_EQSAT_THREADS"] = "1"
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    os.chdir(ROOT)
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources (src/) next to perfbench/; "
            "run from a full checkout")
        return 1

    target_root = os.path.relpath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build", ROOT)
    binary = build(os.path.join(target_root, "perfbench"))
    if binary is None:
        log("build failed")
        return 1

    state = os.path.join(target_root, "perfbench-state",
                         sha256(binary)[:16])
    cache = os.path.join(state, "rules")
    done = os.path.join(state, "rules.done")
    os.makedirs(state, exist_ok=True)
    if not os.path.exists(done):
        log(f"synthesizing the warm rule cache for this build in {cache}")
        if subprocess.run([binary, "--make-cache", cache],
                          stdout=sys.stderr, env=binary_env()).returncode != 0:
            log("rule cache synthesis failed")
            return 1
        open(done, "w").close()

    launch_ns = time.time_ns()
    result = subprocess.run(
        [binary, "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--cache-dir", cache, "--work-dir", state,
         "--launch-ns", str(launch_ns)],
        stdout=subprocess.PIPE, text=True, env=binary_env())
    lines = [line for line in result.stdout.splitlines() if line.strip()]
    if result.returncode != 0 or not lines:
        log(f"benchmark binary exited with {result.returncode}")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
