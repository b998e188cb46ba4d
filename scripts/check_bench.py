#!/usr/bin/env python3
"""Validate BENCH_*.json reports emitted by the benchmark drivers.

Checks, with no third-party dependencies:
  * the file parses and carries bench/jobs/stages/totals;
  * every stage has a name plus either fan-out accounting (trials,
    wall_seconds, trial_seconds_sum, trials_per_second, speedup_estimate)
    or a bare wall_seconds (analytic stages);
  * all timing figures are finite and non-negative, derived rates are
    self-consistent (trials_per_second ~= trials / wall_seconds, speedup
    ~= trial_seconds_sum / wall_seconds);
  * totals equal the sum over fan-out stages;
  * the optional top-level "metrics" object holds finite named scalars
    (e.g. bench_engine's measured event-vs-stepped speedups);
  * optionally, --min-speedup S asserts the total speedup estimate
    (CI runs a --jobs=2 smoke and expects parallelism to materialize);
  * optionally, --min-metric NAME:S (repeatable) asserts a named metric
    (CI gates bench_engine's metrics.event_speedup_* ratios this way).

Usage: check_bench.py FILE.json [...] [--min-speedup=S] [--min-metric=NAME:S]
Exit status: 0 all checks pass, 1 any failure (each failure is printed).
"""

import json
import math
import sys
from pathlib import Path

FAILURES = []

BATCH_KEYS = (
    "trials",
    "wall_seconds",
    "trial_seconds_sum",
    "trials_per_second",
    "speedup_estimate",
)


def fail(msg):
    FAILURES.append(msg)
    print(f"FAIL: {msg}")


def is_num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_nonneg(name, obj, key):
    v = obj.get(key)
    if not is_num(v) or not math.isfinite(v) or v < 0:
        fail(f"{name}: {key} must be a finite non-negative number, got {v!r}")
        return None
    return v


def check_batch(name, obj):
    """Validates one fan-out accounting object (stage or totals)."""
    vals = {}
    for key in BATCH_KEYS:
        vals[key] = check_nonneg(name, obj, key)
    if any(v is None for v in vals.values()):
        return
    if vals["trials"] == 0:
        # Analytic-only report: no fan-out ran, rates are placeholders.
        return
    if vals["wall_seconds"] > 0:
        want_tps = vals["trials"] / vals["wall_seconds"]
        if not math.isclose(vals["trials_per_second"], want_tps, rel_tol=1e-6):
            fail(
                f"{name}: trials_per_second {vals['trials_per_second']} != "
                f"trials/wall_seconds {want_tps}"
            )
        want_speedup = vals["trial_seconds_sum"] / vals["wall_seconds"]
        if not math.isclose(vals["speedup_estimate"], want_speedup, rel_tol=1e-6):
            fail(
                f"{name}: speedup_estimate {vals['speedup_estimate']} != "
                f"trial_seconds_sum/wall_seconds {want_speedup}"
            )


def check_metrics(name, doc, min_metrics):
    metrics = doc.get("metrics", {})
    if not isinstance(metrics, dict):
        fail(f"{name}: 'metrics' must be an object, got "
             f"{type(metrics).__name__}")
        metrics = {}
    for key, value in metrics.items():
        if not is_num(value) or not math.isfinite(value):
            fail(f"{name}: metrics.{key} must be a finite number, "
                 f"got {value!r}")
    for key, threshold in min_metrics:
        value = metrics.get(key)
        if not is_num(value) or value < threshold:
            fail(
                f"{name}: metrics.{key} {value!r} below required minimum "
                f"{threshold}"
            )


def check_report(path, min_speedup, min_metrics):
    try:
        text = path.read_text()
    except OSError as e:
        fail(f"{path.name}: cannot read: {e}")
        return
    if not text.strip():
        fail(f"{path.name}: empty report (bench truncated or never ran?)")
        return
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        fail(f"{path.name}: invalid JSON (truncated write?): {e}")
        return
    if not isinstance(doc, dict):
        fail(f"{path.name}: top-level JSON must be an object, "
             f"got {type(doc).__name__}")
        return
    name = path.name

    if not isinstance(doc.get("bench"), str) or not doc["bench"]:
        fail(f"{name}: 'bench' must be a non-empty string")
    jobs = doc.get("jobs")
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        fail(f"{name}: 'jobs' must be a positive integer, got {jobs!r}")

    stages = doc.get("stages")
    if not isinstance(stages, list) or not stages:
        fail(f"{name}: 'stages' missing or empty")
        stages = []
    fanout_trials = 0
    for i, stage in enumerate(stages):
        sname = f"{name} stage[{i}]"
        if not isinstance(stage, dict):
            fail(f"{sname}: not an object")
            continue
        if not isinstance(stage.get("name"), str) or not stage["name"]:
            fail(f"{sname}: 'name' must be a non-empty string")
        if "trials" in stage:
            check_batch(sname, stage)
            if is_num(stage.get("trials")):
                fanout_trials += stage["trials"]
        else:
            check_nonneg(sname, stage, "wall_seconds")

    check_metrics(name, doc, min_metrics)

    totals = doc.get("totals")
    if not isinstance(totals, dict):
        fail(f"{name}: 'totals' missing")
        return
    check_batch(f"{name} totals", totals)
    if is_num(totals.get("trials")) and totals["trials"] != fanout_trials:
        fail(
            f"{name}: totals.trials {totals['trials']} != sum over stages "
            f"{fanout_trials}"
        )
    if min_speedup is not None:
        speedup = totals.get("speedup_estimate")
        if not is_num(speedup) or speedup < min_speedup:
            fail(
                f"{name}: totals.speedup_estimate {speedup!r} below required "
                f"minimum {min_speedup}"
            )


def main(argv):
    min_speedup = None
    min_metrics = []
    paths = []
    for arg in argv[1:]:
        if arg.startswith("--min-speedup="):
            min_speedup = float(arg.split("=", 1)[1])
        elif arg.startswith("--min-metric="):
            spec = arg.split("=", 1)[1]
            if ":" not in spec:
                print(f"FAIL: --min-metric wants NAME:THRESHOLD, got {spec!r}")
                return 1
            metric, threshold = spec.rsplit(":", 1)
            min_metrics.append((metric, float(threshold)))
        else:
            paths.append(Path(arg))
    if not paths:
        print(__doc__)
        return 1
    for path in paths:
        if not path.is_file():
            fail(f"{path}: no such file")
        else:
            check_report(path, min_speedup, min_metrics)
    if FAILURES:
        print(f"{len(FAILURES)} failure(s)")
        return 1
    print(f"OK: {len(paths)} report(s) valid")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
