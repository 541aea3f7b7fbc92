#!/usr/bin/env python3
"""Compares two benchmark result files: parent (A) against change (B).

Usage: python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds one JSON record per line, as `run.py --results-out` appends
them.  Runs pair up in file order per workload and trace mode: the i-th run
of a workload in A with the i-th in B.  Make the runs alternating, so
drifting host load hits both sides alike:

  for seed in 1 2 3 4 5 6 7 8 9 10; do
    (cd parent && python3 perfbench/run.py --workload W --seed $seed --results-out ../a.jsonl)
    (cd change && python3 perfbench/run.py --workload W --seed $seed --results-out ../b.jsonl)
  done

(start every other pair with the change).  A metric of a workload is
  better      if B wins at least 9 of every 10 pairs (ties count for neither)
              and |median(B) - median(A)| exceeds A's interquartile range;
  worse       by the same rule with A winning;
  unresolved  otherwise, or with fewer than 10 pairs.
Directions (higher or lower is better) come from BENCHMARK.json next to
this directory; a metric it does not list (the printed, ungated end-to-end
metrics) is better higher when its unit is tuples/s and lower otherwise.
Exit code: 0, or 1 when any metric is worse.
"""

import json
import statistics
import sys
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            key = (record["workload"], record.get("trace", 0))
            runs.setdefault(key, []).append(record["result"])
    return runs


def directions():
    spec = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    try:
        data = json.loads(spec.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        return {}
    out = {}
    for group in ("end_to_end", "per_layer"):
        for metric in data.get(group, []):
            out[metric["name"]] = metric["better"]
    return out


def iqr(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return q[2] - q[0]


def verdict(parent, change, better):
    """Applies the alternating-pairs rule to paired values of one metric."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_PAIRS:
        return f"unresolved ({len(pairs)} pairs < {MIN_PAIRS})"
    sign = 1.0 if better == "higher" else -1.0
    change_wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    parent_wins = sum(1 for a, b in pairs if sign * (a - b) > 0)
    gap = statistics.median(change) - statistics.median(parent)
    spread = iqr(parent)
    if change_wins >= WIN_SHARE * len(pairs) and sign * gap > spread:
        return "better"
    if parent_wins >= WIN_SHARE * len(pairs) and -sign * gap > spread:
        return "worse"
    return "unresolved"


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[1]), load(argv[2])
    better = directions()
    any_worse = False
    for key in sorted(set(parent) & set(change)):
        workload, trace = key
        a_runs, b_runs = parent[key], change[key]
        n = min(len(a_runs), len(b_runs))
        print(f"== {workload} (trace {trace}): {n} pairs")
        names = sorted(set(a_runs[0]["metrics"]) & set(b_runs[0]["metrics"]))
        print(f"{'metric':34s} {'parent median':>14s} {'change median':>14s} "
              f"{'parent IQR':>11s}  verdict")
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs[:n] if name in r["metrics"]]
            b = [r["metrics"][name]["value"] for r in b_runs[:n] if name in r["metrics"]]
            if not a or not b:
                continue
            unit = a_runs[0]["metrics"][name]["unit"]
            v = verdict(a, b, better.get(name, "higher" if unit == "tuples/s" else "lower"))
            any_worse |= v == "worse"
            print(f"{name:34s} {statistics.median(a):14.6g} {statistics.median(b):14.6g} "
                  f"{iqr(a):11.4g}  {v}")
        for side, runs in (("parent", a_runs), ("change", b_runs)):
            bad = sum(1 for r in runs[:n] if not r["correct"] or r["failed"])
            if bad:
                print(f"  {side}: {bad} of {n} runs failed their correctness checks")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
