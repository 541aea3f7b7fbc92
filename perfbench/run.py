#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Usage (from the root of a checkout):

  python3 perfbench/run.py --workload chain_hop --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1            # the three in turn
  python3 perfbench/run.py ... --results-out results.jsonl   # also append the result
  python3 perfbench/run.py --self-test                         # the helpers' own tests

Workloads: chain_hop, testbed_paced, keyed_control.  --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics and writes the span log
(.bench_build/trace-<workload>-<seed>.json).  The last line of standard
output is the result object, holding the metrics BENCHMARK.json gates (the
metric lines above it show every metric); build output goes to standard
error.  The
build lives in .bench_build/perfbench and is reused by later runs.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    """Configures once, then builds incrementally; returns True on success."""
    if not (ROOT / "src" / "runtime" / "engine.hpp").is_file():
        log(f"the program sources are missing under {ROOT / 'src'}; nothing to benchmark")
        return False
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        result = subprocess.run(step, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                                check=False)
        if result.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return False
    return True


WORKLOADS = ["chain_hop", "testbed_paced", "keyed_control"]


def run_binary(args, workload):
    """Runs the benchmark binary, echoing all but its last line; returns
    (exit code, last line, all lines)."""
    command = [str(BUILD_DIR / "perfbench"), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            log(f"the run did not finish within {RUN_TIMEOUT_S} s")
            return 1, None, []
    lines = out.splitlines()
    for line in lines[:-1]:
        print(line)
    last = lines[-1] if lines else None
    return proc.returncode, last, lines


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--results-out", help="append {workload, seed, trace, host, result}")
    parser.add_argument("--self-test", action="store_true",
                        help="build and run the benchmark's own helper tests")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    if not build():
        return 3
    if args.self_test:
        test = BUILD_DIR / "perfbench_selftest"
        if not test.is_file():
            log("GoogleTest was not found at configure time; self-tests not built")
            return 3
        return subprocess.run([str(test)], cwd=ROOT, check=False).returncode

    worst = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        worst = max(worst, run_workload(args, workload))
    return worst


def run_workload(args, workload):
    """One workload: run, echo, optionally record; returns the exit code."""
    code, last, lines = run_binary(args, workload)
    if last is None:
        return code or 1
    try:
        result = json.loads(last)
    except json.JSONDecodeError:
        log("the run printed no result")
        print(last)
        return code or 1
    if args.results_out:  # every metric, gated or not, for compare.py
        host = next((l[len("# host: "):] for l in lines if l.startswith("# host: ")), "")
        record = {"workload": workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "host": host, "result": result}
        with open(args.results_out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(gated(result, args.trace)), flush=True)
    return code


def gated(result, trace):
    """The result with the metrics BENCHMARK.json lists for this mode (all
    of them when the file is absent); the others were printed above."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return result
    names = [m["name"] for m in spec.get("per_layer" if trace else "end_to_end", [])]
    metrics = {name: result["metrics"][name] for name in names if name in result["metrics"]}
    return dict(result, metrics=metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
