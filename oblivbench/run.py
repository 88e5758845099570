#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs it.

One run (the benchmark's command; prints the result JSON as its last line):

    python3 oblivbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass over every workload in BENCHMARK.json, one output file per run:

    python3 oblivbench/run.py --pass DIR [--runs 10] [--first-seed 1]
                              [--trace 0|1] [--seconds S]

With --trace 1 every run is a profile run: per-layer metrics, and a span
file under .bench_out/.  Summarize or compare passes with
oblivbench/compare_benchmark.py.

The smoke check (every workload at tiny sizes, both modes, outputs checked,
and the emitted metric names checked against BENCHMARK.json):

    python3 oblivbench/run.py --smoke

The library and driver are built with CMake into .bench_build/ at the root
of the checkout; every OBLIVDB_* variable is removed from the driver's
environment so the engine runs at its defaults.
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD_DIR, "oblivdb_bench")
MANIFEST = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"oblivbench: {message}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not an oblivdb checkout (no CMakeLists.txt/src)")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "oblivdb_bench",
         "-j", str(os.cpu_count() or 1)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path)


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def driver_env():
    return {k: v for k, v in os.environ.items()
            if not k.startswith("OBLIVDB_")}


def run_driver(args, stdout=None):
    """Runs the driver to completion; returns its exit code."""
    try:
        return subprocess.run([DRIVER] + args, env=driver_env(), cwd=ROOT,
                              stdout=stdout, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"oblivbench: driver exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 3


def load_manifest():
    with open(MANIFEST) as f:
        return json.load(f)


def smoke():
    manifest = load_manifest()
    declared = {
        False: {m["name"] for m in manifest["end_to_end"]},
        True: {m["name"] for m in manifest["per_layer"]},
    }
    workloads = {w["name"] for w in manifest["workloads"]}
    out = subprocess.run([DRIVER, "--smoke"], env=driver_env(), cwd=ROOT,
                         capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    sys.stderr.write(out.stderr)
    ok = out.returncode == 0
    seen = set()
    for line in out.stdout.splitlines():
        record = json.loads(line)
        if "workload" not in record:
            continue
        seen.add(record["workload"])
        emitted = set(record["result"])
        if emitted != declared[record["trace"]]:
            print(f"smoke: {record['workload']} trace={record['trace']}: "
                  f"emitted {sorted(emitted ^ declared[record['trace']])} "
                  "differ from BENCHMARK.json", file=sys.stderr)
            ok = False
    if seen != workloads:
        print(f"smoke: driver ran {sorted(seen)}, BENCHMARK.json declares "
              f"{sorted(workloads)}", file=sys.stderr)
        ok = False
    print("smoke OK" if ok else "smoke FAILED")
    return 0 if ok else 1


def run_pass(out_dir, runs, first_seed, trace, seconds):
    manifest = load_manifest()
    seconds = seconds or manifest["run_seconds"]
    os.makedirs(out_dir, exist_ok=True)
    status = 0
    for i in range(runs):
        seed = first_seed + i
        for workload in (w["name"] for w in manifest["workloads"]):
            path = os.path.join(out_dir,
                                f"{workload}-seed{seed}-trace{trace}.out")
            with open(path, "w") as f:
                code = run_driver(["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(seconds),
                                   "--trace", str(trace),
                                   "--commit", commit()], stdout=f)
            print(f"{os.path.basename(path)}: exit {code}", file=sys.stderr)
            status = status or code
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--pass", dest="pass_dir")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    build()
    if args.smoke:
        return smoke()
    if args.pass_dir:
        return run_pass(args.pass_dir, args.runs, args.first_seed,
                        args.trace, args.seconds)
    if not args.workload:
        parser.error("--workload, --pass or --smoke is required")
    seconds = args.seconds or load_manifest()["run_seconds"]
    sys.stdout.flush()
    return run_driver(["--workload", args.workload, "--seed", str(args.seed),
                       "--seconds", str(seconds), "--trace", str(args.trace),
                       "--commit", commit()])


if __name__ == "__main__":
    sys.exit(main())
