#!/usr/bin/env python3
"""Smoke test of the benchmark itself: short runs of every workload, traced
and untraced, checking that every metric of BENCHMARK.json is emitted with
its unit, that each workload exercises exactly the layers it is meant to,
that a second seed runs clean, and that the benchmark refuses to run (exit
code not 0, no result line) in a directory holding only BENCHMARK.json and
the benchmark's own files.

    python3 perfbench/smoke_test.py

Run from the root of a checkout; takes about a minute after the build.
"""
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

STVM = ["stvm.assemble_ms", "stvm.postprocess_ms", "stvm.vm_init_ms", "stvm.minstr_per_s",
        "stvm.engine.switch.minstr_per_s", "stvm.engine.threaded.minstr_per_s",
        "stvm.engine.jit.minstr_per_s", "stvm.p1.minstr_per_s", "stvm.instructions",
        "stvm.fused_groups", "stvm.suspends", "stvm.restarts", "stvm.steals_served",
        "stvm.frames_unwound"]
IO = ["io.wakeups", "io.events_per_wakeup", "io.overhead_vs_epoll", "io.p99_vs_epoll",
      "ref.epoll_lat_us_p50",
      "ref.epoll_lat_us_p99", "ref.epoll_goodput_rps", "echo.lat_us_p99", "echo.lat_us_p999",
      "echo.gen_late_us_p99", "echo.handshake_us_p90"]
RUNTIME = ["fork.per_solve", "ledger.fork_share", "ledger.residual", "steal.attempts",
           "steal.received", "steal.rejected", "steal.hit_ratio", "runtime.cpu_util",
           "park.idle_wakes", "stacklet.high_water", "stacklet.heap_fallbacks"]


def apps(*names):
    return ["apps.%s.%s_ms" % (a, v) for a in names for v in ("seq", "stmp", "cilkstyle")]


# Per-layer metrics each workload does not exercise (run.py reports them as 0).
NOT_EXERCISED = {
    "fine_p1": STVM + IO + apps("magic", "nqueens", "knapsack"),
    "search_p4": STVM + IO + apps("fib"),
    "echo_open": STVM + apps("fib", "magic", "nqueens", "knapsack"),
    "stvm_pfib": RUNTIME + IO + apps("fib", "magic", "nqueens", "knapsack"),
}


def run(cwd, workload, seed, trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        command = json.load(f)["command"]
    cmd = command + ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                     "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=900)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def expect(cond, what):
        if not cond:
            failures.append(what)
            print("FAIL:", what)

    for w in [x["name"] for x in spec["workloads"]]:
        for trace, seed in ((0, 1), (1, 1), (0, 2)):
            proc = run(ROOT, w, seed, trace)
            lines = proc.stdout.strip().splitlines()
            tag = "%s trace=%d seed=%d" % (w, trace, seed)
            expect(proc.returncode == 0, "%s exit code %d: %s" % (tag, proc.returncode,
                                                                  proc.stderr[-500:]))
            if not lines or not lines[-1].startswith("{"):
                expect(False, "%s printed no result line" % tag)
                continue
            result = json.loads(lines[-1])
            expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                   "%s result keys %s" % (tag, sorted(result)))
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   "%s not correct: %s" % (tag, {k: result[k] for k in result if k != "metrics"}))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            expect(sorted(result["metrics"]) == sorted(m["name"] for m in wanted),
                   "%s metric names differ from BENCHMARK.json" % tag)
            for m in wanted:
                got = result["metrics"].get(m["name"], {})
                expect(got.get("unit") == m["unit"] and isinstance(got.get("value"), (int, float)),
                       "%s metric %s: %s" % (tag, m["name"], got))
                if not trace:
                    expect(got.get("value", 0) > 0, "%s end-to-end %s is not positive"
                           % (tag, m["name"]))
            if trace:
                idle = []
                for line in lines:
                    if line.startswith("not exercised by"):
                        idle = line.split(":", 1)[1].split()
                expect(sorted(idle) == sorted(NOT_EXERCISED[w]),
                       "%s exercised layers differ: unexpected idle %s, missing idle %s"
                       % (tag, sorted(set(idle) - set(NOT_EXERCISED[w])),
                          sorted(set(NOT_EXERCISED[w]) - set(idle))))
            print("ok:", tag)

    # Without the program's sources beside it the benchmark cannot build.
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    for p in spec["paths"]:
        shutil.copytree(os.path.join(ROOT, p), os.path.join(bare, p),
                        ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    proc = subprocess.run(spec["command"] + ["--workload", "fine_p1", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=bare, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=180)
    refused = proc.returncode != 0 and '"correct"' not in proc.stdout
    expect(refused, "bare directory: exit code %d, stdout %r"
           % (proc.returncode, proc.stdout[-200:]))
    shutil.rmtree(bare, ignore_errors=True)
    if refused:
        print("ok: bare directory refused")

    print("%d failure(s)" % len(failures) if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
