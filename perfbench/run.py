#!/usr/bin/env python3
"""Benchmark command: builds the harness, prepares data, runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from ../src) into
.bench_build/perfbench, generates the workload's datasets into .bench_data
(cached by shape and seed), then runs the workload in one harness process.
The harness's stderr, which carries the service's per-request log, goes to
.bench_data/<workload>-s<seed>.log. Its stdout is passed through; the last
line, a JSON object with the keys correct, attempted, failed and metrics, is
checked against BENCHMARK.json and printed again as the last line. The exit
code is 0 only when the build, the run and every output check succeeded.

--seconds sizes the fixed job list; it is not a deadline, so the job list
depends only on the workload, the seed and --seconds.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DATA_DIR = os.path.join(ROOT, ".bench_data")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
WORKLOADS = ("centroid_resident", "pairwise_sampled", "service_mix")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"[run.py] {msg}", file=sys.stderr, flush=True)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", BUILD_DIR, "--target", "perfbench_harness",
              "-j", jobs]]
    # Once configured, the build step re-runs the configure step by itself
    # when a CMakeLists.txt changes.
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD_DIR,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=840)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            log("build failed: " + " ".join(cmd))
            return False
    return True


def expected_metrics(trace):
    """Metric name -> unit a run must report, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    section = bench["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-fault", action="store_true",
                        help="corrupt one reference fingerprint; the run "
                             "must then fail")
    args = parser.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        parser.error("--seed must be >= 0 and --seconds in 1..600")

    if not build():
        return 1
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--data_dir", DATA_DIR]
    if subprocess.run([HARNESS, "gen"] + common,
                      timeout=RUN_TIMEOUT_S).returncode != 0:
        log("dataset generation failed")
        return 1
    cmd = [HARNESS, "run"] + common + [
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--inject_fault", "1" if args.inject_fault else "0"]
    log_path = os.path.join(DATA_DIR, f"{args.workload}-s{args.seed}.log")
    with open(log_path, "w") as stderr_log:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=stderr_log,
                             text=True, timeout=RUN_TIMEOUT_S)
    lines = run.stdout.rstrip("\n").split("\n")
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"the harness printed no result line; see {log_path}")
        return 1

    # The reported metrics must be the ones BENCHMARK.json names, with the
    # same units. A per-layer metric a workload does not report belongs to
    # a layer the workload bypasses, and reads 0.
    want = expected_metrics(args.trace == 1)
    got = result["metrics"]
    extra = sorted(set(got) - set(want))
    wrong = sorted(k for k in set(got) & set(want) if got[k]["unit"] != want[k])
    missing = sorted(set(want) - set(got)) if args.trace == 0 else []
    if extra or wrong or missing:
        log(f"metrics differ from BENCHMARK.json: extra {extra}, "
            f"wrong units {wrong}, missing {missing}")
        result["correct"] = False
    metrics = {name: got.get(name, {"value": 0, "unit": unit})
               for name, unit in want.items()}
    ok = run.returncode == 0 and result["correct"] is True
    if not ok:
        log(f"run failed (exit {run.returncode}); harness log: {log_path}")
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
