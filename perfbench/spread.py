#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, the benchmark's own
steadiness check.

    python3 perfbench/spread.py --workload serve-stream --seeds 1-10

Runs perfbench/run.py once per seed (sequentially, --trace 0, the
BENCHMARK.json run length) and prints, per end-to-end metric, the median
and the distance between the first and third quartile as a share of the
median (statistics.quantiles(values, n=4)), next to the metric's bound.
A spread under a third of the bound is the target; setup_s is only
reported. The raw values go to .bench_build/perfbench-results/.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    values = {m["name"]: [] for m in bench["end_to_end"]}
    for seed in seeds(args.seeds):
        proc = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            cwd=ROOT)
        if proc.returncode != 0:
            sys.exit(f"seed {seed}: run.py exited {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, m in result["metrics"].items():
            values[name].append(m["value"])
        print(f"seed {seed}: " + ", ".join(
            f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
            flush=True)

    out = os.path.join(ROOT, ".bench_build", "perfbench-results",
                       f"spread-{args.workload}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as f:
        json.dump(values, f, indent=2)

    worst = 0.0
    for m in bench["end_to_end"]:
        v = values[m["name"]]
        med = statistics.median(v)
        q1, _, q3 = statistics.quantiles(v, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        share = spread / m["bound"]
        if m["name"] != "setup_s":
            worst = max(worst, share)
        print(f"{args.workload:14s} {m['name']:15s} median {med:12.6g} "
              f"spread {spread:7.4f} bound {m['bound']:.2f} "
              f"({share:4.0%} of bound)")
    print(f"worst spread/bound (setup_s excluded): {worst:.0%}")


if __name__ == "__main__":
    main()
