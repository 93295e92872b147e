#!/usr/bin/env python3
"""The benchmark's own test: deterministic per-layer counts.

    python3 perfbench/test_counts.py [--seconds 1] [--workloads a,b]

For every workload, runs the traced pass (perfbench/run.py --trace 1) twice
with one seed and once with another.  Passes when every deterministic count
repeats exactly between the two same-seed runs (ssbench itself also
checks that they repeat between traced blocks of one run) and the counts
change with the seed.  Failed ops are printed, not judged: they are the
program's, and the benchmark reports them in its result.  Run from the
repository root; exits 1 on any failure.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("dfs_traversal", "topk_pump", "xfsm_police", "chaos_recovery")
# Counts the program makes (simulator, stage profiler, recovery service),
# as opposed to timings: equal inputs must give equal values.
DETERMINISTIC = ("sim.hops", "sim.events", "sim.packets", "sim.flows",
                 "ofp.dispatch_ops", "ofp.group_exec_ops",
                 "ofp.state_lookup_ops", "ofp.state_store_ops",
                 "ofp.state_evictions", "obs.sweep_msgs",
                 "core.recovery_cycles", "core.divergences")
SEED_A, SEED_B = 7, 8


def traced(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def counts(doc):
    return {k: doc["metrics"][k]["value"] for k in DETERMINISTIC}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    args = ap.parse_args()

    failures = []
    for w in [n for n in args.workloads.split(",") if n]:
        a1, a2, b = (traced(w, s, args.seconds) for s in (SEED_A, SEED_A, SEED_B))
        for doc, seed in ((a1, SEED_A), (a2, SEED_A), (b, SEED_B)):
            if doc["failed"] != 0:
                print(f"note: {w} seed {seed}: {doc['failed']}/{doc['attempted']} ops failed")
        ca1, ca2, cb = counts(a1), counts(a2), counts(b)
        for k in DETERMINISTIC:
            if ca1[k] != ca2[k]:
                failures.append(f"{w} {k}: {ca1[k]} then {ca2[k]} with seed {SEED_A}")
        if ca1 == cb:
            failures.append(f"{w}: counts identical for seeds {SEED_A} and {SEED_B}")
        print(f"{w}: " + ", ".join(f"{k}={ca1[k]:g}" for k in DETERMINISTIC
                                   if ca1[k] != 0 or cb[k] != 0))
    for f in failures:
        print("FAIL:", f)
    print("ok" if not failures else f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
