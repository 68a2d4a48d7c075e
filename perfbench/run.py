#!/usr/bin/env python3
"""Builds and runs the SSIN repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --short

Run from the root of a checkout. The first call configures and builds
perfbench/CMakeLists.txt (the SSIN libraries from src/ plus the benchmark
binary) into .bench_build/perfbench; later calls only rebuild what changed.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Reports and traces are written to .bench_out/.

--short runs every workload, untraced and traced, on tiny inputs and checks
that each run passes its output checks and prints exactly the metrics
BENCHMARK.json names: the benchmark's own test, in about a minute.
"""

import argparse
import fcntl
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "ssin_perfbench")
WORKLOADS = ("hk_shared", "nat1k_churn")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_fingerprint():
    """SHA-256 over every file the benchmark builds from."""
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


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"  # A plain source checkout carries no commit.


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no SSIN sources at %s/src; run from a repository checkout"
             % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    # One build at a time per checkout.
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "--target",
                      "ssin_perfbench", "-j", jobs])
        for step in steps:
            result = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr)
            if result.returncode != 0:
                fail("build step failed: " + " ".join(step))


def run_binary(args):
    env = dict(os.environ)
    env["SSIN_BENCH_COMMIT"] = commit()
    env["SSIN_BENCH_SOURCE_SHA256"] = source_fingerprint()
    sys.stdout.flush()
    return subprocess.run([BINARY, "--out-dir", OUT_DIR] + args, cwd=ROOT,
                          env=env, stdout=subprocess.PIPE, text=True)


def short_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {
        "0": sorted(m["name"] for m in spec["end_to_end"]),
        "1": sorted(m["name"] for m in spec["per_layer"]),
    }
    failures = 0
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            result = run_binary(["--workload", workload, "--seed", "7",
                                 "--seconds", "3", "--trace", trace,
                                 "--short"])
            lines = result.stdout.strip().splitlines()
            ok = result.returncode == 0 and bool(lines)
            problem = "exit code %d" % result.returncode
            if ok:
                line = json.loads(lines[-1])
                names = sorted(line["metrics"])
                ok = line["correct"] and names == expected[trace]
                problem = ("output checks failed" if not line["correct"] else
                           "metric names differ from BENCHMARK.json: %s"
                           % sorted(set(names) ^ set(expected[trace])))
            print("%-4s %s --trace %s%s" % ("ok" if ok else "FAIL", workload,
                                            trace, "" if ok else
                                            ": " + problem))
            failures += 0 if ok else 1
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--short", action="store_true",
                        help="run every workload and check on tiny inputs")
    args = parser.parse_args()
    if not args.short and args.workload is None:
        parser.error("--workload is required (or --short)")
    build()
    if args.short:
        return short_test()
    result = run_binary(["--workload", args.workload, "--seed",
                         str(args.seed), "--seconds", str(args.seconds),
                         "--trace", args.trace])
    sys.stdout.write(result.stdout)
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
