#!/usr/bin/env python3
"""Wall-clock benchmark of STIX: builds the benchmark binary from source and
runs one workload.

    python3 perfbench/run.py --offered-rate 550 --workload hil-row-read \
        --seed 1 --seconds 20 --trace 0

prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.

--repeat N runs the workload N times with the same seed, each in fresh
processes, and prints the median and quartiles of every metric.

Each measurement runs in its own process (the metrics registry is
process-global), and set-up is repeated in SETUP_REPEATS extra processes so
setup_s is a median. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "work")
WORKLOADS = ["hil-row-read", "bslts-bucket-read", "bslts-durable-traffic"]
SETUP_REPEATS = 2
# One run must finish within 180 s; leave room for the wrapper itself.
RUN_BUDGET_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "stix_perfbench")


def metric_lists():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]])


def run_binary(binary, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError("run budget exhausted")
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=remaining)
    if proc.returncode != 0:
        raise RuntimeError(f"{binary} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(binary, args):
    """One run of one workload: the main process plus, on --trace 0, the
    extra set-up processes. Returns (result line, details)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    work = os.path.join(WORK_ROOT, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds),
              "--offered-rate", str(args.offered_rate), "--work-dir", work]
    try:
        trace_args = ["--trace", str(args.trace)]
        if args.trace:
            trace_args += ["--spans-out", os.path.join(
                ROOT, ".bench_build", f"spans-{args.workload}.tsv")]
        main = run_binary(binary, common + trace_args, deadline)
        setups = list(main["setup_samples_s"])
        if not args.trace:
            for _ in range(SETUP_REPEATS):
                extra = run_binary(binary, common + ["--setup-only"],
                                   deadline)
                setups += extra["setup_samples_s"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = dict(main["metrics"])
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    e2e, per_layer = metric_lists()
    names = per_layer if args.trace else e2e
    missing = [n for n in names if n not in metrics]
    correct = (main["oracle_mismatches"] == 0 and not main["invalid"]
               and not missing)
    line = {
        "correct": correct,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {n: metrics[n] for n in names if n in metrics},
    }
    details = {
        "failed_frac": main["failed"] / max(1, main["attempted"]),
        "oracle_mismatches": main["oracle_mismatches"],
        "invalid": main["invalid"] or None,
        "missing_metrics": missing or None,
        "setup_samples_s": setups,
        "sample_counts": main["sample_counts"],
    }
    return line, details


def print_run(line, details):
    for name, m in line["metrics"].items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    for name, value in details.items():
        if value is not None:
            print(f"{name:40s} {value}")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--offered-rate", type=float, required=True,
                        help="traffic phase-1 offered rate, ops/s")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs with the same seed; prints quartiles")
    args = parser.parse_args()

    binary = build()
    if args.repeat <= 1:
        line, details = measure(binary, args)
        print_run(line, details)
        print(json.dumps(line), flush=True)
        return 0

    runs = []
    for i in range(args.repeat):
        line, details = measure(binary, args)
        log(f"run {i + 1}/{args.repeat}: {json.dumps(line)}")
        runs.append(line)
    summary = {"workload": args.workload, "seed": args.seed,
               "runs": len(runs),
               "correct": all(r["correct"] for r in runs),
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs), "metrics": {}}
    print(f"{'metric':40s} {'q1':>12s} {'median':>12s} {'q3':>12s} "
          f"{'iqr/med':>8s}")
    for name, m in runs[0]["metrics"].items():
        q1, med, q3 = quartiles([r["metrics"][name]["value"] for r in runs])
        spread = (q3 - q1) / med if med else 0.0
        print(f"{name:40s} {q1:12.6g} {med:12.6g} {q3:12.6g} {spread:8.3f}")
        summary["metrics"][name] = {"q1": q1, "median": med, "q3": q3,
                                    "unit": m["unit"]}
    print(json.dumps(summary), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
