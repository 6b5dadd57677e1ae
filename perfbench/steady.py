#!/usr/bin/env python3
"""Steadiness check: runs each workload N times with different seeds and
prints, per metric, the median, the quartiles, the spread (interquartile
range over the median) and the min and max.

    python3 perfbench/steady.py [--runs 10] [--seconds 25] [--trace 0]
                                [--workloads queue-16b,...] [--first-seed 1]

Run it from the root of a checkout. Bounds in BENCHMARK.json are set from
its output: a metric's spread should stay under a third of its bound.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def one_run(workload, seed, seconds, trace):
    r = subprocess.run([sys.executable, RUN, "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds),
                        "--trace", str(trace)],
                       stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                       text=True, timeout=900)
    lines = r.stdout.strip().splitlines()
    # A run a check rejected exits 1 but still prints its result.
    if r.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} seed {seed}: exit {r.returncode}")
    steal = [l.split(":")[1].strip() for l in lines if "cpu steal" in l]
    return json.loads(lines[-1]), (steal[0] if steal else "?")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    ap.add_argument("--workloads", default="queue-16b,kv-ycsba-1k")
    ap.add_argument("--first-seed", type=int, default=1)
    args = ap.parse_args()
    for w in args.workloads.split(","):
        results = []
        for i in range(args.runs):
            seed = args.first_seed + i
            res, steal = one_run(w, seed, args.seconds, args.trace)
            results.append(res)
            share = res["failed"] / res["attempted"]
            print(f"# {w} seed {seed}: correct {res['correct']} attempted "
                  f"{res['attempted']} failed {res['failed']} ({share:.6f}); "
                  f"cpu steal {steal}", flush=True)
        print(f"{w} ({args.runs} runs of {args.seconds} s)")
        print(f"  {'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
              f"{'spread':>8s} {'min':>12s} {'max':>12s}")
        for name, m in results[0]["metrics"].items():
            vals = [r["metrics"][name]["value"] for r in results]
            med = statistics.median(vals)
            q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                         else (vals[0], 0, vals[0]))
            spread = (q3 - q1) / med if med else float("nan")
            print(f"  {name:40s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {min(vals):12.6g} {max(vals):12.6g} "
                  f"{m['unit']}", flush=True)
        ok = all(r["correct"] for r in results)
        print(f"  all correct: {ok}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
