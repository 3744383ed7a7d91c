#!/usr/bin/env python3
"""Builds the benchmark and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve_mixed --seed 1 --seconds 10 --trace 0

Workloads: serve_mixed, serve_reads, lab_matrix (see perfbench/METRICS.md).
Every run configures and builds the library, the tools and perfbench_run
in Release under .bench_build/; after the first, that is only a check. Everything the run writes stays under .bench_build/.

The last line of stdout is the result object; the exit code is
perfbench_run's (0 ok, 1 an output check failed, 2 refusal or set-up error).
"""
import argparse
import ctypes
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
CMAKE_DIR = os.path.join(BUILD_DIR, "cmake")


def fail(message):
    print(f"perfbench: error {message}", file=sys.stderr)
    return 2


def source_id():
    """The checkout's git sha, or a hash of its sources outside git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        if sha.returncode == 0:
            return sha.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return "source-sha256:" + digest.hexdigest()[:16]


def die_with_parent():
    """Has the kernel kill perfbench_run if this process dies first."""
    ctypes.CDLL(None).prctl(1, 9)  # PR_SET_PDEATHSIG, SIGKILL


def build():
    log_path = os.path.join(BUILD_DIR, "build.log")
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", "perfbench", "-B", CMAKE_DIR, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", CMAKE_DIR, "-j", str(min(os.cpu_count() or 1, 8)),
                  "--target", "perfbench_run", "decycle_serve", "decycle_lab"]]
        for step in steps:
            if subprocess.run(step, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as handle:
                    sys.stderr.write("".join(handle.readlines()[-30:]))
                return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for the self-test")
    args = parser.parse_args()

    os.chdir(ROOT)
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src") and os.path.isdir("tools")):
        return fail(f"missing_sources: {ROOT} holds no decycle sources to build")
    if not build():
        return fail(f"build_failed: see {os.path.join(BUILD_DIR, 'build.log')}")
    command = [os.path.join(CMAKE_DIR, "bin", "perfbench_run"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", args.trace,
               "--bin-dir", os.path.join(CMAKE_DIR, "bin"),
               "--work-dir", os.path.join(BUILD_DIR, "run"),
               "--source-id", source_id()]
    if args.smoke:
        command.append("--smoke")
    return subprocess.run(command, preexec_fn=die_with_parent).returncode


if __name__ == "__main__":
    sys.exit(main())
