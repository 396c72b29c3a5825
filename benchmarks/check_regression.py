#!/usr/bin/env python3
"""CI perf-regression gate over the committed benchmark baselines.

Usage:  python benchmarks/check_regression.py BASELINE.json FRESH.json
            [INGEST_BASELINE.json INGEST_FRESH.json
             [QUERY_BASELINE.json QUERY_FRESH.json
              [DURABILITY_BASELINE.json DURABILITY_FRESH.json]]]

Compares a fresh ``BENCH_entailment.json`` (written by
``run_report.py --quick`` during the CI run) against the committed
baseline (copied aside before the quick bench overwrites it).  Two
sentinel workloads guard the two kernels this repo optimizes:

* E4 ``hard/non-3-colorable n=10`` — the matching planner's hardest
  committed row (exhaustive refutation with backtracking);
* the largest sp-chain row of the ``arrays`` (sorted-run merge)
  closure kernel.

With the optional second pair, the same largest-common-size / >3x rule
also gates the scale path from ``BENCH_ingest.json`` (committed full
run vs the CI ``bench_ingest.py --smoke`` rerun): streaming-ingest
wall-clock (a 3x slowdown at a fixed size is a 3x throughput drop) and
the ``arrays`` closure that ``repro load --close`` runs on the loaded
rows.  Both ladders always contain the
10⁵-triple row precisely so this comparison has a common size.

The gate fails (exit 1) on a >3x slowdown: CI runners are noisy, so
the threshold is loose by design — it catches algorithmic regressions
(a dropped index, an accidental quadratic loop), not jitter.  An
expected section *missing* from either file also fails the gate: a
silently dropped bench row would otherwise disable its check forever.

A third check reads the fresh run's ``guard_overhead`` section (the
execution-guard A/B from bench_guard_overhead.py): an infinite-budget
guarded run more than 1.1x slower than its interleaved unguarded twin
fails the gate.  This one compares within the *fresh* file — the A and
B sides share one runner and one moment, so the tight threshold is
safe where a cross-run 1.1x would be noise.

The fresh ``BENCH_ingest.json`` carries the analogous ``obs_overhead``
section (bench_ingest.py): the telemetry-off ingest and ``arrays``
close more than 1.1x slower than their interleaved plain twins fail
the gate — the "near-free while off" promise of repro.obs, measured.

With the optional third pair, ``BENCH_query.json`` (committed full run
vs the CI ``bench_query_cache.py --smoke`` rerun) gates the query-cache
serving path the same way: the *cached* timings of the containment-hit
and zipf-stream rows at the largest common size (a 3x
slowdown on a cached hit means the fast path stopped being fast), plus
a within-fresh check that ``store.query`` with *no* cache attached
stays within 1.1x of a direct ``answers()`` call — the "free when
disabled" promise of the serving layer.

With the optional fourth pair, ``BENCH_durability.json`` (committed
full run vs the CI ``bench_durability.py --smoke`` rerun) gates the
durable backend: per-commit WAL latency at the largest common batch
size, and WAL-replay recovery time at the largest common log length.
Both ladders contain the 64-row-batch and 256-batch rows by
construction, so the comparison always has a common size.
"""

import json
import sys

#: A fresh measurement above ``3x * baseline`` fails the gate.
THRESHOLD = 3.0

#: A guarded-unlimited run above ``1.1x * unguarded`` fails the gate.
GUARD_OVERHEAD_THRESHOLD = 1.1

#: A telemetry-off run above ``1.1x * plain`` fails the gate.
OBS_OVERHEAD_THRESHOLD = 1.1

#: A cache-disabled ``store.query`` above ``1.1x * answers()`` fails.
QUERY_DISABLED_THRESHOLD = 1.1


def _e4_hard_series(payload):
    """E4 hard/non-3-colorable timings keyed by n, or {}."""
    try:
        rows = payload["current"]["E4"]
    except (KeyError, TypeError):
        return {}
    return {
        row["n"]: row["ms"]
        for row in rows
        if row.get("family") == "hard/non-3-colorable"
        and row.get("n") is not None and row.get("ms") is not None
    }


def _closure_growth_arrays(payload):
    """sp-chain timings of the arrays kernel keyed by |G|, or {}."""
    try:
        rows = payload["closure_kernel"]["growth"]
    except (KeyError, TypeError):
        return {}
    return {
        row["size"]: row["arrays_ms"]
        for row in rows
        if row.get("family") == "sp-chain"
        and row.get("size") is not None and row.get("arrays_ms") is not None
    }


def _ingest_serial_series(payload):
    """Serial streaming-load timings keyed by triple count, or {}."""
    try:
        rows = payload["ingest"]["rows"]
    except (KeyError, TypeError):
        return {}
    return {
        row["size"]: row["serial_ms"]
        for row in rows
        if row.get("size") is not None and row.get("serial_ms") is not None
    }


def _load_close_series(payload):
    """``load --close`` arrays-closure timings keyed by triple count."""
    try:
        rows = payload["load_close"]["rows"]
    except (KeyError, TypeError):
        return {}
    return {
        row["size"]: row["arrays_ms"]
        for row in rows
        if row.get("size") is not None and row.get("arrays_ms") is not None
    }


#: Each check extracts a {workload-size: ms} series from a payload; the
#: gate compares baseline vs fresh at the **largest size present in
#: both**, so re-tuning the bench's size ladder never produces an
#: apples-to-oranges ratio.
CHECKS = [
    ("E4 hard/non-3-colorable", _e4_hard_series),
    ("closure-kernel arrays sp-chain", _closure_growth_arrays),
]

#: Checks over the optional BENCH_ingest.json pair.
INGEST_CHECKS = [
    ("streaming ingest serial", _ingest_serial_series),
    ("load --close arrays closure", _load_close_series),
]


def _query_cached_series(payload, workload):
    """Cached-serving timings of one query workload keyed by size."""
    try:
        rows = payload["query_cache"]["rows"]
    except (KeyError, TypeError):
        return {}
    return {
        row["size"]: row["cached_ms"]
        for row in rows
        if row.get("workload") == workload
        and row.get("size") is not None and row.get("cached_ms") is not None
    }


def _query_containment_hit_series(payload):
    return _query_cached_series(payload, "containment-hit")


def _query_zipf_series(payload):
    return _query_cached_series(payload, "zipf-stream")


#: Checks over the optional BENCH_query.json pair — cached-hit rows
#: only: the cold columns re-measure paths the other gates already
#: watch, but a cached-hit slowdown is *this* subsystem regressing.
QUERY_CHECKS = [
    ("query cache containment-hit", _query_containment_hit_series),
    ("query cache zipf-stream", _query_zipf_series),
]


def _commit_latency_series(payload):
    """Per-commit WAL latency keyed by batch size, or {}."""
    try:
        rows = payload["commit_latency"]["rows"]
    except (KeyError, TypeError):
        return {}
    return {
        row["batch_rows"]: row["ms_per_commit"]
        for row in rows
        if row.get("batch_rows") is not None
        and row.get("ms_per_commit") is not None
    }


def _recovery_series(payload):
    """WAL-replay open time keyed by committed-batch count, or {}."""
    try:
        rows = payload["recovery"]["rows"]
    except (KeyError, TypeError):
        return {}
    return {
        row["batches"]: row["recovery_ms"]
        for row in rows
        if row.get("batches") is not None
        and row.get("recovery_ms") is not None
    }


#: Checks over the optional BENCH_durability.json pair.
DURABILITY_CHECKS = [
    ("durable commit latency", _commit_latency_series),
    ("wal recovery", _recovery_series),
]


def check_guard_overhead(fresh) -> bool:
    """True when the fresh run's guard-overhead rows stay under 1.1x."""
    try:
        rows = fresh["guard_overhead"]["rows"]
    except (KeyError, TypeError):
        print("perf gate: guard overhead: section MISSING from fresh run")
        return False
    if not rows:
        print("perf gate: guard overhead: section empty in fresh run")
        return False
    ok = True
    for row in rows:
        name = row.get("workload", "?")
        overhead = row.get("overhead")
        if overhead is None:
            print(f"perf gate: guard overhead [{name}]: no ratio, skipped")
            continue
        verdict = "FAIL" if overhead > GUARD_OVERHEAD_THRESHOLD else "ok"
        print(
            f"perf gate: guard overhead [{name}]: "
            f"{row.get('unguarded_ms')} ms unguarded vs "
            f"{row.get('guarded_ms')} ms guarded "
            f"({overhead:.3f}x) {verdict}"
        )
        ok = ok and overhead <= GUARD_OVERHEAD_THRESHOLD
    return ok


def check_obs_overhead(ingest_fresh) -> bool:
    """True when the fresh run's obs-off A/B rows stay under 1.1x."""
    try:
        rows = ingest_fresh["obs_overhead"]["rows"]
    except (KeyError, TypeError):
        print("perf gate: obs overhead: section MISSING from fresh run")
        return False
    if not rows:
        print("perf gate: obs overhead: section empty in fresh run")
        return False
    ok = True
    for row in rows:
        name = row.get("workload", "?")
        overhead = row.get("overhead")
        if overhead is None:
            print(f"perf gate: obs overhead [{name}]: no ratio, skipped")
            continue
        verdict = "FAIL" if overhead > OBS_OVERHEAD_THRESHOLD else "ok"
        print(
            f"perf gate: obs overhead [{name}]: "
            f"{row.get('plain_ms')} ms plain vs "
            f"{row.get('disabled_obs_ms')} ms telemetry-off "
            f"({overhead:.3f}x) {verdict}"
        )
        ok = ok and overhead <= OBS_OVERHEAD_THRESHOLD
    return ok


def check_query_disabled_overhead(query_fresh) -> bool:
    """True when cache-less ``store.query`` stays within 1.1x."""
    try:
        rows = query_fresh["disabled_overhead"]["rows"]
    except (KeyError, TypeError):
        print("perf gate: query disabled overhead: section MISSING from fresh run")
        return False
    if not rows:
        print("perf gate: query disabled overhead: section empty in fresh run")
        return False
    ok = True
    for row in rows:
        name = row.get("workload", "?")
        overhead = row.get("overhead")
        if overhead is None:
            print(f"perf gate: query disabled overhead [{name}]: no ratio, skipped")
            continue
        verdict = "FAIL" if overhead > QUERY_DISABLED_THRESHOLD else "ok"
        print(
            f"perf gate: query disabled overhead [{name}]: "
            f"{round(row.get('plain_ms', 0), 3)} ms answers() vs "
            f"{round(row.get('disabled_ms', 0), 3)} ms store.query "
            f"({overhead:.3f}x) {verdict}"
        )
        ok = ok and overhead <= QUERY_DISABLED_THRESHOLD
    return ok


def run_checks(checks, baseline, fresh) -> bool:
    """Compare each series at the largest common size; True when any fail."""
    failed = False
    for name, extract in checks:
        base_series, fresh_series = extract(baseline), extract(fresh)
        common = sorted(set(base_series) & set(fresh_series))
        if not common:
            # A bench section this gate is supposed to watch has
            # disappeared from one of the payloads: fail loudly — a
            # skip here would silently disable the check forever.
            side = "baseline" if not base_series else "fresh run"
            print(f"perf gate: {name}: expected rows MISSING from {side}")
            failed = True
            continue
        size = common[-1]
        base_ms, fresh_ms = base_series[size], fresh_series[size]
        if base_ms <= 0:
            print(f"perf gate: {name} n={size}: bad baseline {base_ms}")
            failed = True
            continue
        ratio = fresh_ms / base_ms
        verdict = "FAIL" if ratio > THRESHOLD else "ok"
        print(
            f"perf gate: {name} n={size}: baseline {base_ms:.3f} ms, "
            f"fresh {fresh_ms:.3f} ms ({ratio:.2f}x) {verdict}"
        )
        failed = failed or ratio > THRESHOLD
    return failed


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (2, 4, 6, 8):
        print(__doc__)
        return 2
    try:
        baseline = json.loads(open(argv[0]).read())
    except (OSError, ValueError) as e:
        print(f"perf gate: cannot read baseline {argv[0]} ({e}); skipping")
        return 0
    try:
        fresh = json.loads(open(argv[1]).read())
    except (OSError, ValueError) as e:
        print(f"perf gate: cannot read fresh run {argv[1]} ({e})")
        return 1

    failed = run_checks(CHECKS, baseline, fresh)
    failed = failed or not check_guard_overhead(fresh)

    if len(argv) >= 4:
        try:
            ingest_baseline = json.loads(open(argv[2]).read())
        except (OSError, ValueError) as e:
            print(
                f"perf gate: cannot read ingest baseline {argv[2]} ({e})"
            )
            ingest_baseline = None
        try:
            ingest_fresh = json.loads(open(argv[3]).read())
        except (OSError, ValueError) as e:
            print(f"perf gate: cannot read ingest fresh run {argv[3]} ({e})")
            ingest_fresh = None
        if ingest_baseline is None or ingest_fresh is None:
            # The caller asked for the ingest gate; a missing file is a
            # broken pipeline, not a reason to wave the check through.
            failed = True
        else:
            failed = run_checks(
                INGEST_CHECKS, ingest_baseline, ingest_fresh
            ) or failed
            failed = failed or not check_obs_overhead(ingest_fresh)

    if len(argv) >= 6:
        try:
            query_baseline = json.loads(open(argv[4]).read())
        except (OSError, ValueError) as e:
            print(f"perf gate: cannot read query baseline {argv[4]} ({e})")
            query_baseline = None
        try:
            query_fresh = json.loads(open(argv[5]).read())
        except (OSError, ValueError) as e:
            print(f"perf gate: cannot read query fresh run {argv[5]} ({e})")
            query_fresh = None
        if query_baseline is None or query_fresh is None:
            # Same policy as the ingest pair: the caller asked for this
            # gate, so a missing file is a broken pipeline.
            failed = True
        else:
            failed = run_checks(
                QUERY_CHECKS, query_baseline, query_fresh
            ) or failed
            failed = (not check_query_disabled_overhead(query_fresh)) or failed

    if len(argv) == 8:
        try:
            durability_baseline = json.loads(open(argv[6]).read())
        except (OSError, ValueError) as e:
            print(
                f"perf gate: cannot read durability baseline {argv[6]} ({e})"
            )
            durability_baseline = None
        try:
            durability_fresh = json.loads(open(argv[7]).read())
        except (OSError, ValueError) as e:
            print(
                f"perf gate: cannot read durability fresh run {argv[7]} ({e})"
            )
            durability_fresh = None
        if durability_baseline is None or durability_fresh is None:
            # Same policy again: the caller asked for the durability
            # gate, so a missing file is a broken pipeline.
            failed = True
        else:
            failed = run_checks(
                DURABILITY_CHECKS, durability_baseline, durability_fresh
            ) or failed

    if failed:
        print(f"perf gate: regression above {THRESHOLD}x threshold")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
