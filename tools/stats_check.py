#!/usr/bin/env python3
"""Validates the metric payloads of a SpinStreams run.

Given the body of /stats.json and/or /metrics (saved to files by the CI
smoke job's curl) and/or a --metrics-out JSONL file, checks:

  JSON snapshot (--json FILE):
    * valid JSON object with t/epoch/dropped/ops/bottlenecks/e2e/sched,
    * a non-empty "ops" list where every entry carries the per-operator
      counter fields with the right types,
    * the scheduler block carries steals/parks/wakeups/batches/
      ring_enqueues/ring_spills,
    * with --require-profile, at least one operator carries a profiler
      estimate (est_rate/confidence/est_samples).

  Metrics JSONL (--jsonl FILE):
    * every line passes the JSON snapshot check above, and every operator
      of every line carries the windowed rate fields (proc_rate/emit_rate/
      rho/blocked),
    * with --require-profile, at least one line carries an estimate.

  Prometheus text (--prom FILE):
    * every sample line parses as  name[{labels}] value,
    * every metric family is preceded by its "# TYPE" declaration,
    * the always-present families exist (processed, busy seconds, queue
      depth, epoch, scheduler counters including parks and wakeups),
    * with --require-profile, the estimated-service-rate family exists.

Exit code 0 when every requested payload validates, 1 with a diagnostic on
the first violation.  Stdlib only -- runs anywhere CI has a python3.

Usage: stats_check.py [--json FILE] [--jsonl FILE] [--prom FILE]
                      [--require-profile]
"""

import json
import re
import sys

SAMPLE_LINE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?'
    r'\s+(?P<value>[^\s]+)$'
)

REQUIRED_OP_FIELDS = {
    "name": str,
    "processed": int,
    "emitted": int,
    "busy_s": (int, float),
    "blocked_s": (int, float),
    "queue": int,
    "queue_peak": int,
}

WINDOWED_OP_FIELDS = ("proc_rate", "emit_rate", "rho", "blocked")

REQUIRED_SCHED_FIELDS = (
    "steals", "parks", "wakeups", "batches", "ring_enqueues", "ring_spills"
)

REQUIRED_PROM_FAMILIES = [
    "ss_op_processed_total",
    "ss_op_busy_seconds_total",
    "ss_op_queue_depth",
    "ss_epoch",
    "ss_dropped_total",
    "ss_sched_steals_total",
    "ss_sched_parks_total",
    "ss_sched_wakeups_total",
    "ss_sched_ring_enqueues_total",
    "ss_sched_ring_spills_total",
]


def fail(message):
    print(f"stats_check: FAIL: {message}", file=sys.stderr)
    return 1


def check_json(path, require_profile):
    try:
        with open(path, encoding="utf-8") as handle:
            snap = json.load(handle)
    except OSError as error:
        return fail(f"cannot read {path}: {error}")
    except json.JSONDecodeError as error:
        return fail(f"{path} is not valid JSON: {error}")
    status = check_object(snap, require_profile, windowed=False)
    if status == 0:
        print(f"stats_check: {path}: {len(snap['ops'])} ops, "
              f"{len(snap['bottlenecks'])} bottleneck entries: OK")
    return status


def check_jsonl(path, require_profile):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
    except OSError as error:
        return fail(f"cannot read {path}: {error}")
    if not lines:
        return fail(f"{path}: no metric lines at all")
    profiled = False
    for number, line in enumerate(lines, start=1):
        try:
            snap = json.loads(line)
        except json.JSONDecodeError as error:
            return fail(f"{path}:{number} is not valid JSON: {error}")
        status = check_object(snap, False, windowed=True)
        if status != 0:
            return fail(f"{path}:{number}: invalid metrics line (see above)")
        profiled = profiled or any("est_rate" in op for op in snap["ops"])
    if require_profile and not profiled:
        return fail(f"{path}: no line carries a profiler estimate (est_rate)")
    print(f"stats_check: {path}: {len(lines)} lines: OK")
    return 0


def check_object(snap, require_profile, windowed):
    """The snapshot checks shared by --json and every --jsonl line."""
    if not isinstance(snap, dict):
        return fail("top level must be a JSON object")
    for key in ("t", "epoch", "dropped", "ops", "bottlenecks", "e2e", "sched"):
        if key not in snap:
            return fail(f'missing top-level key "{key}"')
    ops = snap["ops"]
    if not isinstance(ops, list) or not ops:
        return fail('"ops" must be a non-empty list')
    for index, op in enumerate(ops):
        if not isinstance(op, dict):
            return fail(f"ops[{index}] is not an object")
        for field, kind in REQUIRED_OP_FIELDS.items():
            if field not in op:
                return fail(f'ops[{index}] missing "{field}"')
            if not isinstance(op[field], kind):
                return fail(
                    f'ops[{index}].{field} has type {type(op[field]).__name__}'
                )
        for field in WINDOWED_OP_FIELDS if windowed else ():
            if not isinstance(op.get(field), (int, float)):
                return fail(f'ops[{index}] missing windowed field "{field}"')
    sched = snap["sched"]
    if not isinstance(sched, dict):
        return fail('"sched" must be an object')
    for field in REQUIRED_SCHED_FIELDS:
        if not isinstance(sched.get(field), int):
            return fail(f'sched.{field} missing or not an integer')
    if not isinstance(snap["bottlenecks"], list):
        return fail('"bottlenecks" must be a list')
    for index, entry in enumerate(snap["bottlenecks"]):
        for field in ("op", "blame_s", "share"):
            if field not in entry:
                return fail(f'bottlenecks[{index}] missing "{field}"')
    if require_profile:
        profiled = [op for op in ops if "est_rate" in op]
        if not profiled:
            return fail("no operator carries a profiler estimate (est_rate)")
        for op in profiled:
            for field in ("confidence", "est_samples", "queue_full"):
                if field not in op:
                    return fail(f'profiled op "{op["name"]}" missing "{field}"')
    return 0


def check_prom(path, require_profile):
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as error:
        return fail(f"cannot read {path}: {error}")

    declared = set()
    samples = 0
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 3 and parts[1] == "TYPE":
                declared.add(parts[2])
            continue
        match = SAMPLE_LINE.match(line)
        if match is None:
            return fail(f"{path}:{number}: unparseable sample line: {line!r}")
        name = match.group("name")
        if name not in declared:
            return fail(f'{path}:{number}: family "{name}" has no # TYPE')
        try:
            float(match.group("value"))
        except ValueError:
            return fail(f"{path}:{number}: non-numeric value: {line!r}")
        samples += 1
    if samples == 0:
        return fail(f"{path}: no sample lines at all")
    for family in REQUIRED_PROM_FAMILIES:
        if family not in declared:
            return fail(f'{path}: required family "{family}" missing')
    if require_profile and "ss_op_estimated_service_rate" not in declared:
        return fail(f"{path}: ss_op_estimated_service_rate missing "
                    "(profiler estimates not exported)")
    print(f"stats_check: {path}: {samples} samples, "
          f"{len(declared)} typed families: OK")
    return 0


def main(argv):
    json_path = None
    jsonl_path = None
    prom_path = None
    require_profile = False
    it = iter(argv[1:])
    for arg in it:
        if arg == "--json":
            json_path = next(it, None)
        elif arg == "--jsonl":
            jsonl_path = next(it, None)
        elif arg == "--prom":
            prom_path = next(it, None)
        elif arg == "--require-profile":
            require_profile = True
        else:
            return fail(f"unknown argument {arg}")
    if json_path is None and jsonl_path is None and prom_path is None:
        print(__doc__, file=sys.stderr)
        return 2
    if json_path is not None:
        status = check_json(json_path, require_profile)
        if status != 0:
            return status
    if jsonl_path is not None:
        status = check_jsonl(jsonl_path, require_profile)
        if status != 0:
            return status
    if prom_path is not None:
        status = check_prom(prom_path, require_profile)
        if status != 0:
            return status
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
