#!/usr/bin/env python3
"""Repository benchmark: build perfbench from this checkout, run one
workload, check its outputs and print one result line.

    python3 perfbench/run.py --workload fine_p1 --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); a traced
run writes its span file under .bench_out/.  The last line of standard
output is the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json, with
--trace 1 the per_layer list.  Exits 1 when an output check failed or the
build or run did not complete (then without a result line), 2 on bad
arguments.  README.md describes the workloads and every metric.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("fine_p1", "search_p4", "echo_open", "stvm_pfib")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the perfbench binary; returns its path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", "4"],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def histogram_quantile(snapshots, name, q):
    """Nearest-rank quantile over the merged buckets of histogram `name` in
    every Runtime::metrics_json() snapshot (bucket midpoints, as the
    runtime's own summaries use); 0 when nothing was recorded."""
    buckets = {}
    for snap in snapshots:
        for h in snap.get("histograms", []):
            if h["name"] != name:
                continue
            for lo, hi, n in h["buckets"]:
                buckets[(lo, hi)] = buckets.get((lo, hi), 0) + n
    total = sum(buckets.values())
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q * total))
    seen = 0
    for lo, hi in sorted(buckets):
        seen += buckets[(lo, hi)]
        if seen >= rank:
            return (lo + hi) / 2.0
    return 0.0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--lat-limit-us", type=float, default=1000.0,
                    help="echo_open latency limit on the tail percentile")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log("perfbench: build failed:", e)
        return 1

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--lat-limit-us", str(args.lat_limit_us)]
    if args.trace:
        out_dir = os.path.join(ROOT, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--span-file",
                os.path.join(out_dir, "%s-seed%d.trace.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: run timed out after %d s" % RUN_TIMEOUT_S)
        return 1

    raw = None
    for line in proc.stdout.splitlines():
        if line.startswith("PERFBENCH "):
            raw = json.loads(line[len("PERFBENCH "):])
        else:
            print(line)
    if raw is None:
        log("perfbench: no result from the run (exit code %d)" % proc.returncode)
        return 1

    values = dict(raw["metrics"])
    snaps = raw["runtime_metrics"]
    if args.trace:
        values["steal.latency_ns_p50"] = histogram_quantile(snaps, "steal_latency", 0.50)
        values["steal.latency_ns_p99"] = histogram_quantile(snaps, "steal_latency", 0.99)
        values["io.wait_us_p50"] = histogram_quantile(snaps, "io_wait", 0.50) / 1e3
    metrics = {}
    idle = []
    for m in wanted:
        if m["name"] in values:
            v = values[m["name"]]
        elif args.trace:
            v = 0.0  # a layer this workload does not exercise
            idle.append(m["name"])
        else:
            log("perfbench: end-to-end metric %s missing" % m["name"])
            return 1
        metrics[m["name"]] = {"value": v, "unit": m["unit"]}
    if idle:
        print("not exercised by %s (reported as 0): %s" % (args.workload, " ".join(idle)))

    correct = proc.returncode == 0 and raw["failed"] == 0 and raw["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
