#!/usr/bin/env python3
"""Repository benchmark: build the harness from source, run one workload,
check its outputs, and print the result as one JSON line.

    python3 perfbench/run.py --workload train-qcoo --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds the
cstf libraries plus the harness under .bench_build/ (Release); later runs
only rebuild what changed. --trace 0 reports the end-to-end metrics of
BENCHMARK.json, --trace 1 the per-layer ones. Every run also writes a
result file with a provenance header under .bench_build/perfbench-results/.
The process exits non-zero when the build fails, the harness fails, or the
correctness gate finds a mismatch.

    python3 perfbench/run.py --self-test   # harness unit tests
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BUILD_TYPE = "Release"
HARNESS_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(msg)
    sys.exit(code)


def spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build(targets):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no cstf sources next to perfbench/ (expected src/CMakeLists.txt)")
    jobs = str(os.cpu_count() or 1)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                     BUILD_DIR, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_describe():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() or "unknown"


def provenance(harness_out, args):
    built = harness_out.get("build", {})
    build_type = built.get("build_type", "")
    flags = built.get("cxx_flags", "")
    # The harness refuses assertion and sanitizer builds at run time; refuse
    # a configured Debug or sanitizer build here too, before trusting it.
    if build_type in ("", "Debug") or "-fsanitize" in flags:
        fail(f"refusing results of a {build_type or 'unoptimized'} build "
             f"(flags: {flags})", 3)
    return {
        "schema": "cstf-perfbench-result-v1",
        "git_describe": git_describe(),
        "build_type": build_type,
        "compiler": built.get("compiler", ""),
        "cxx_flags": flags,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "unix_time": time.time(),
        "config": harness_out.get("config", {}),
    }


def self_test():
    build(["perfbench_tests"])
    return subprocess.run([os.path.join(BUILD_DIR, "perfbench_tests")]).returncode


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()

    bench = spec()
    if args.self_test:
        sys.exit(self_test())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose one of {names}")
    if args.seed < 0:
        fail("--seed must be non-negative")
    build(["perfbench_harness"])

    work = os.path.join(BUILD_ROOT, "perfbench-work",
                        f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    cmd = [os.path.join(BUILD_DIR, "perfbench_harness"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--work-dir", work]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness exceeded {HARNESS_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        fail(f"harness exited with code {proc.returncode}", 1)
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("harness printed no result line", 1)

    # End-to-end: exactly the listed metrics. Per layer: listed metrics
    # only; one of a layer the workload does not run reads 0.
    wanted = bench["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = out["metrics"]
    for name, got in metrics.items():
        if units.get(name) != got["unit"]:
            fail(f"harness reported {name} [{got['unit']}], which "
                 f"BENCHMARK.json does not list", 1)
        if not isinstance(got["value"], (int, float)) or \
                not math.isfinite(got["value"]):
            fail(f"metric {name} is not a finite number", 1)
    missing = [n for n in units if n not in metrics]
    if missing and not args.trace:
        fail(f"harness result lacks metrics {missing}", 1)
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}

    result = {
        "correct": bool(out["correct"]),
        "attempted": int(out["attempted"]),
        "failed": int(out["failed"]),
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }
    results_dir = os.path.join(BUILD_ROOT, "perfbench-results")
    os.makedirs(results_dir, exist_ok=True)
    path = os.path.join(
        results_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as f:
        json.dump({"provenance": provenance(out, args), "result": result,
                   "mismatches": out.get("mismatches", [])}, f, indent=2)
        f.write("\n")

    for name, m in result["metrics"].items():
        log(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    for mismatch in out.get("mismatches", []):
        log(f"MISMATCH: {mismatch}")
    print(json.dumps(result))
    sys.exit(0 if result["correct"] else 1)


if __name__ == "__main__":
    main()
