#!/usr/bin/env python3
"""Steadiness check: runs the benchmark on several seeds per workload and
reports, for each end-to-end metric, the median and the spread (distance
between the first and third quartiles, as a share of the median) next to
the metric's bound in BENCHMARK.json.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]
        [--label NAME] [--compare NAME] [workload ...]

Run from the root of a checkout.  Raw results are appended as JSON lines
to .bench_out/steadiness.jsonl, tagged with --label.  --compare NAME also
checks each median against the median of the earlier set labelled NAME:
the later one may not be worse by more than the bound.  Exits 1 if a run
failed, a spread exceeds its bound or a median moved by more than it.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--label", default="")
    ap.add_argument("--compare", default=None)
    ap.add_argument("workloads", nargs="*", default=names)
    args = ap.parse_args()

    log_path = os.path.join(ROOT, ".bench_out", "steadiness.jsonl")
    earlier = {}  # (workload, metric) -> values of the set named by --compare
    if args.compare is not None:
        with open(log_path) as f:
            for line in f:
                rec = json.loads(line)
                if rec.get("label") != args.compare or not rec["result"]:
                    continue
                for name, m in rec["result"]["metrics"].items():
                    earlier.setdefault((rec["workload"], name), []).append(m["value"])

    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    log = open(log_path, "a")
    ok = True
    for w in args.workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.DEVNULL, text=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
            log.write(json.dumps({"label": args.label, "workload": w, "seed": seed,
                                  "exit": proc.returncode, "result": result}) + "\n")
            log.flush()
            if proc.returncode != 0 or result is None or not result["correct"]:
                print("%s seed %d: run failed (exit %d)" % (w, seed, proc.returncode))
                ok = False
                continue
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        print("%s (%d runs)" % (w, args.runs))
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            if len(v) < 4:
                continue
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = ""
            if spread > m["bound"]:
                flag = "  OVER BOUND"
                ok = False
            elif spread > m["bound"] / 3:
                flag = "  above a third of the bound"
            print("  %-18s median %-14.6g spread %6.3f  bound %.2f%s"
                  % (m["name"], med, spread, m["bound"], flag))
            before = earlier.get((w, m["name"]))
            if before:
                old = statistics.median(before)
                worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
                moved = "  MOVED BEYOND BOUND" if worse > m["bound"] else ""
                if moved:
                    ok = False
                print("  %-18s earlier median %-14.6g worse by %6.3f%s"
                      % ("", old, worse, moved))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
