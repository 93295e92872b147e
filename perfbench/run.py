#!/usr/bin/env python3
"""Build and run the SmartSouth end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The first call configures and builds
perfbench/ (the library sources under src/ plus the ssbench program) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset; later calls only re-check the build.  Build output goes to stderr.
The stdout of ssbench is passed through; its last line is the JSON result
(see perfbench/main.cpp).  Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("dfs_traversal", "topk_pump", "xfsm_police", "chaos_recovery")
# Library switches read from the environment; the benchmark measures the
# default configuration, so they are never passed through.
SCRUBBED_ENV = ("SS_NO_FLOW_INDEX", "SS_TRACE_CAP")
BUILD_TIMEOUT_S = 840
RUN_SLACK_S = 150


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(root), "perfbench")


def build(out_dir):
    """Configure (once) and build; returns the ssbench path or None."""
    os.makedirs(out_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out_dir, "-j", jobs])
    # One build at a time per build tree, even if runs overlap.
    with open(os.path.join(out_dir, ".build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                print(f"perfbench: {' '.join(cmd)}: {e}", file=sys.stderr)
                return None
            if r.returncode != 0:
                print(f"perfbench: {' '.join(cmd)} exited {r.returncode}",
                      file=sys.stderr)
                return None
    exe = os.path.join(out_dir, "ssbench")
    return exe if os.access(exe, os.X_OK) else None


def valid_result(line):
    try:
        doc = json.loads(line)
    except ValueError:
        return False
    return (isinstance(doc, dict)
            and set(doc) == {"correct", "attempted", "failed", "metrics"}
            and isinstance(doc["metrics"], dict) and doc["attempted"] >= 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds <= 0 or args.seed < 0:
        ap.error("--seconds must be positive and --seed non-negative")

    exe = build(build_dir())
    if exe is None:
        return 1

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                           timeout=args.seconds + RUN_SLACK_S, text=True)
    except subprocess.TimeoutExpired:
        print("perfbench: ssbench timed out", file=sys.stderr)
        return 1
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines or not valid_result(lines[-1]):
        sys.stderr.write(r.stdout)
        print(f"perfbench: ssbench exited {r.returncode} without a result",
              file=sys.stderr)
        return 1
    sys.stdout.write(r.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
