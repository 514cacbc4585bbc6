#!/usr/bin/env python3
"""Builds and runs the Denali benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload bswap|ladder|replay|serve|all \
        --seed N --seconds S --trace 0|1

The first run configures and builds perfbench/ (a CMake package that
compiles the Denali libraries from src/ in Release mode) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally. The harness prints a human-readable report, then
this script prints one JSON line: the run's correctness and attempted /
failed counts, and the metrics BENCHMARK.json lists for the trace mode
(end_to_end with --trace 0, per_layer with --trace 1). The serve workload
is not in BENCHMARK.json (see README.md), so its line holds every metric
it measured. "all" runs the four workloads one after another, each in
its own process. With --trace 1 the spans are written to
<build dir>/traces/<workload>-seed<N>.jsonl.

Exit status: 0 when every output was correct; nonzero on a wrong output,
a failed build, or missing sources (nothing is printed on stdout then).
"""

import argparse
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RESULT_TAG = "PERFBENCH_RESULT "


def build(build_dir):
    """Configures (once) and builds the harness; returns the binary path."""
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run(binary, build_dir, spec, workload, args):
    """Runs one workload; prints its report and JSON line; returns ok."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", os.path.join(BENCH_DIR, "inputs")]
    if args.trace:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.jsonl" % (workload, args.seed))]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    result = None
    for line in proc.stdout.splitlines():
        if line.startswith(RESULT_TAG):
            result = json.loads(line[len(RESULT_TAG):])
        else:
            print(line)
    sys.stdout.flush()
    if result is None or proc.returncode not in (0, 1):
        sys.exit("perfbench exited with status %d and no result"
                 % proc.returncode)

    if workload in [w["name"] for w in spec["workloads"]]:
        wanted = [m["name"]
                  for m in spec["per_layer" if args.trace else "end_to_end"]]
        missing = [m for m in wanted if m not in result["metrics"]]
        if missing:
            sys.exit("perfbench did not report %s" % ", ".join(missing))
        result["metrics"] = {m: result["metrics"][m] for m in wanted}
    print(json.dumps(result))
    return result["correct"] and proc.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("bswap", "ladder", "replay", "serve", "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR",
                                                  ".bench_build"), "perfbench")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit("perfbench build failed: %s" % err)

    workloads = (["bswap", "ladder", "replay", "serve"]
                 if args.workload == "all"
                 else [args.workload])
    ok = True
    for workload in workloads:
        ok = run(binary, build_dir, spec, workload, args) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
