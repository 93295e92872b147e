#!/usr/bin/env python3
"""Steadiness check for the end-to-end benchmark.

    python3 perfbench/steady.py [--runs 10] [--workloads a,b] [--seed-base 1000]
                                [--save FILE] [--against FILE]

Runs perfbench/run.py --trace 0 RUNS times per workload, each run with its
own seed (seed-base + run index), workloads interleaved run by run.  For
every end-to-end metric of BENCHMARK.json it prints the median, quartiles
(statistics.quantiles, n=4) and min/max of the RUNS values, and the
interquartile spread as a share of the median against the metric's bound:
"steady" below a third of the bound, "ok" below the bound, "NOISY" above
(setup_s is reported but not judged on spread).  --save writes the raw
values as JSON; --against FILE compares this set's medians with a saved
set's and flags any metric whose median got worse by more than its bound.
Run from the repository root.  Exits 1 on a failed run, an incorrect
result, a NOISY metric or a --against regression.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {r.returncode}")
    return json.loads(r.stdout.splitlines()[-1])


def worse_by(metric, old, new):
    """Relative worsening of `new` against `old` (negative = better)."""
    if old == 0:
        return 0.0
    d = (new - old) / old
    return d if metric["better"] == "lower" else -d


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--save", default="")
    ap.add_argument("--against", default="")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        names = [n for n in args.workloads.split(",") if n]
    seconds = bench["run_seconds"]
    metrics = bench["end_to_end"]

    values = {w: {m["name"]: [] for m in metrics} for w in names}
    bad = []
    for k in range(args.runs):
        for w in names:
            doc = run_once(w, args.seed_base + k, seconds)
            if not doc["correct"] or doc["failed"]:
                bad.append(f"{w} seed {args.seed_base + k}: correct={doc['correct']} "
                           f"failed={doc['failed']}/{doc['attempted']}")
            for m in metrics:
                values[w][m["name"]].append(doc["metrics"][m["name"]]["value"])
            print(f"run {k + 1}/{args.runs} {w}: " + ", ".join(
                f"{m['name']}={doc['metrics'][m['name']]['value']:.6g}" for m in metrics),
                flush=True)

    saved = {}
    if args.against:
        with open(args.against) as f:
            saved = json.load(f)

    print(f"\n{'workload':16} {'metric':12} {'median':>11} {'q1':>11} {'q3':>11} "
          f"{'min':>11} {'max':>11} {'spread':>7} {'bound':>6}  verdict")
    for w in names:
        for m in metrics:
            v = values[w][m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4) if len(v) > 1 else (v[0],) * 3
            spread = (q3 - q1) / med if med else 0.0
            if m["name"] == "setup_s":
                verdict = "(not judged)"
            elif spread < m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "ok"
            else:
                verdict = "NOISY"
                bad.append(f"{w} {m['name']}: spread {spread:.3f} > bound {m['bound']}")
            if w in saved and m["name"] in saved[w]:
                old = statistics.median(saved[w][m["name"]])
                d = worse_by(m, old, statistics.median(v))
                verdict += f"; vs saved {d:+.3f}"
                if d > m["bound"]:
                    verdict += " REGRESSED"
                    bad.append(f"{w} {m['name']}: median worse by {d:.3f} > {m['bound']}")
            print(f"{w:16} {m['name']:12} {med:11.5g} {q1:11.5g} {q3:11.5g} "
                  f"{min(v):11.5g} {max(v):11.5g} {spread:7.3f} {m['bound']:6.2f}  {verdict}")

    if args.save:
        with open(args.save, "w") as f:
            json.dump(values, f, indent=1)
    for b in bad:
        print("FAIL:", b)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
