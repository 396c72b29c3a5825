#!/usr/bin/env python3
"""End-to-end benchmark: load -> open -> first answer -> update -> next answer.

One command generates every input from ``--seed``, drives the store in
fresh child processes through user entry points, verifies every output
and prints one line per metric (``workload metric value unit``), then —
as the last line of standard output — one JSON object::

    {"correct": true, "attempted": 412, "failed": 0, "metrics": {...}}

``--trace 0`` runs the workload untraced and reports the end-to-end
metrics declared in ``BENCHMARK.json``; ``--trace 1`` runs it once
untraced and once decomposed into traced layer calls and reports the
per-layer metrics.  Without ``--workload`` / ``--trace`` everything is
run, one (workload, mode) after the other.  See README.md beside this
file for what each workload and metric means.

A *run* is: build (byte-compile ``src``), set-up three or more times (median ->
``setup_s``), then whole **rounds** of the workload — each round a fresh
store built and served by fresh processes — until ``--seconds`` of
measuring have passed, and at least three.  Timings are pooled over the
rounds; counts are per round and must repeat exactly between rounds.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
WORK = HERE / ".work"

sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

#: Set-up is repeated at least this often, and until it has taken a
#: fifth of ``--seconds`` in all (a 0.4 s set-up needs more than three
#: repeats for a steady median), but never more than SETUP_MAX_REPEATS.
SETUP_REPEATS = 3
SETUP_MAX_REPEATS = 7
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 170

#: The modules of ``src/repro`` the traced run attributes time to.
LAYERS = (
    "cli", "ingest", "rdfio", "core.interning", "core.planner", "store.durable",
    "store", "datalog", "semantics.closure", "minimize", "query.answers",
    "query.cache", "query.containment",
)


def layer_of(span_name: str) -> str:
    """The layer a span belongs to: its longest matching module prefix."""
    best = ""
    for layer in LAYERS:
        if (span_name == layer or span_name.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    return best or "bench"


# ---------------------------------------------------------------------------
# Small statistics
# ---------------------------------------------------------------------------


def median(xs) -> float:
    xs = list(xs)
    return statistics.median(xs) if xs else 0.0


def p90(xs) -> float:
    xs = sorted(xs)
    return xs[math.ceil(0.9 * len(xs)) - 1] if xs else 0.0


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


class Prepared(NamedTuple):
    """One set-up's output: generated files, expectations, oracle verdict."""

    workload: wl.Workload
    files: Dict[str, Path]
    oracle_checked: int
    oracle_mismatches: List[str]


def prepare(name: str, seed: int, scale: str, directory: Path) -> Prepared:
    """Generate inputs and check a sample of the expectations (set-up)."""
    import oracle  # imports repro: only once the checkout is known to have it

    w = wl.build_workload(name, seed, scale)
    files = wl.write_workload(w, directory)
    checked, mismatches = oracle.check_sample(w, seed)
    return Prepared(w, files, checked, mismatches)


def build() -> None:
    """Byte-compile the program so no round pays for compilation."""
    compileall.compile_dir(str(SRC), quiet=2, workers=1)
    compileall.compile_dir(str(HERE), quiet=2, workers=1, maxlevels=0)


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------


def child_env(cwd: Path) -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items()
           if k not in ("REPRO_CLOSURE_KERNEL", "REPRO_STORE_VALIDATE", "REPRO_CHAOS")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(cwd)  # a spilling loader must stay inside the checkout
    return env


def spawn(argv: List[str], cwd: Path) -> Tuple[int, float, float, str]:
    """Run one child to its end: ``(returncode, t_spawn, seconds, stdout)``.

    The child is killed and reaped on every way out of here.
    """
    t_spawn = time.monotonic()
    proc = subprocess.Popen(
        argv, cwd=str(cwd), env=child_env(cwd),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    seconds = time.monotonic() - t_spawn
    if proc.returncode != 0:
        sys.stderr.write(err[-2000:])
    return proc.returncode, t_spawn, seconds, out


def run_round(prep: Prepared, directory: Path, traced: bool) -> Dict:
    """One whole pass: child A loads the file, child B serves the script."""
    directory.mkdir(parents=True)
    store = directory / "store"
    plan = {
        "traced": traced,
        "data": str(prep.files["data"]),
        "script": str(prep.files["script"]),
        "store": str(store),
        "crash_dir": str(directory / "crashed"),
        # any ground triple of the data: entails() on it builds the fixpoint
        "probe": next(x for x in prep.workload.data_lines if "_:" not in x),
    }
    out: Dict = {"traced": traced, "load": None, "serve": None}

    # child A: file -> checkpointed durable store
    if traced:
        plan_a = dict(plan, mode="load", result=str(directory / "load.json"),
                      trace_out=str(directory / "load.trace.json"))
        (directory / "load.plan.json").write_text(json.dumps(plan_a))
        argv = [sys.executable, str(HERE / "child.py"), str(directory / "load.plan.json")]
    else:
        argv = [sys.executable, "-m", "repro.cli", "load", plan["data"], "--store", str(store)]
    code, _t, seconds, stdout = spawn(argv, directory)
    out["load_s"] = seconds
    out["load_ok"] = code == 0
    if code == 0 and traced:
        out["load"] = json.loads((directory / "load.json").read_text())
        added = out["load"]["added"]
    elif code == 0:
        found = re.search(r"store new triples:\s+(\d+)", stdout)
        added = int(found.group(1)) if found else -1
    else:
        return out
    out["load_ok"] = added == prep.workload.input_triples
    out["store_bytes"] = sum(p.stat().st_size for p in store.rglob("*") if p.is_file())
    out["segment_bytes"] = sum(
        p.stat().st_size for p in store.glob("segments-*/*") if p.is_file())

    # child B: open -> first answer -> the rest of the script
    plan_b = dict(plan, mode="serve", result=str(directory / "serve.json"),
                  trace_out=str(directory / "serve.trace.json"))
    (directory / "serve.plan.json").write_text(json.dumps(plan_b))
    argv = [sys.executable, str(HERE / "child.py"), str(directory / "serve.plan.json")]
    code, t_spawn, _seconds, _stdout = spawn(argv, directory)
    if code == 0:
        out["serve"] = json.loads((directory / "serve.json").read_text())
        out["open_s"] = out["serve"]["t_open"] - t_spawn
    # stores are the bulk of a round's files; traces and results stay
    shutil.rmtree(store, ignore_errors=True)
    shutil.rmtree(directory / "crashed", ignore_errors=True)
    return out


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def score(prep: Prepared, rounds: List[Dict]) -> Tuple[int, int, List[str]]:
    """``(attempted, failed, notes)`` over every operation of every round.

    An operation fails on an exception, on an answer whose cardinality
    or digest differs from the generator's, on a wrong truth value, or
    when the power-loss reopen does not hold exactly the acknowledged
    writes.  A child that died fails every operation it was given.
    Set-up's rule-system mismatches count as failed operations too.
    """
    script, expected = prep.workload.script, prep.workload.expected
    attempted = prep.oracle_checked
    failed = len(prep.oracle_mismatches)
    notes = list(prep.oracle_mismatches)
    for r, rnd in enumerate(rounds):
        attempted += 1
        if not rnd["load_ok"]:
            failed += 1
            notes.append(f"round {r}: load failed")
        # containment pairs are extra work of the traced run only
        given = [i for i, op in enumerate(script) if rnd["traced"] or op["op"] != "contain"]
        attempted += len(given)
        if rnd["serve"] is None:
            failed += len(given)
            notes.append(f"round {r}: serving child failed")
            continue
        records = {rec["i"]: rec for rec in rnd["serve"]["records"]}
        for i in given:
            rec, want = records.get(i), expected[i]
            if rec is None:
                problem = "not executed"
            elif "error" in rec:
                problem = rec["error"].strip().splitlines()[-1]
            elif want is not None and any(rec.get(k) != v for k, v in want.items()):
                problem = f"expected {want}, got " + str({k: rec.get(k) for k in want})
            else:
                continue
            failed += 1
            notes.append(f"round {r} op {i} ({script[i]['op']}): {problem}")
    return attempted, failed, notes


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def _records(prep: Prepared, rnd: Dict, op: str, phase: Optional[str] = None):
    """Finished records of one kind, paired with their script op."""
    script = prep.workload.script
    for rec in rnd["serve"]["records"]:
        sop = script[rec["i"]]
        if sop["op"] == op and (phase is None or sop.get("phase") == phase) \
                and "error" not in rec:
            yield sop, rec


def end_to_end(prep: Prepared, rounds: List[Dict], setup_s: float) -> Dict[str, Tuple[float, str]]:
    """The metrics a user of the store would see (untraced rounds)."""
    good = [r for r in rounds if r["serve"] is not None]

    def pooled(op, phase=None):
        return [rec["t_ms"] for r in good for _sop, rec in _records(prep, r, op, phase)]

    def per_second(phase):
        rates = []
        for r in good:
            ts = [rec["t_ms"] for _sop, rec in _records(prep, r, "query", phase)]
            rates.append(ratio(len(ts), sum(ts) / 1e3))
        return median(rates)

    w = prep.workload
    written = [sum(rec["written_bytes"] for _s, rec in _records(prep, r, "update")) for r in good]
    return {
        "setup_s": (setup_s, "s"),
        "load_s": (median(r["load_s"] for r in rounds), "s"),
        "open_s": (median(r["open_s"] for r in good), "s"),
        "first_answer_s": (median(pooled("query", "first")) / 1e3, "s"),
        "query_p50_ms": (median(pooled("query", "A")), "ms"),
        "query_p90_ms": (p90(pooled("query", "A")), "ms"),
        "queries_per_s": (per_second("A"), "1/s"),
        "cached_queries_per_s": (per_second("B"), "1/s"),
        "commit_p50_ms": (median(pooled("update")), "ms"),
        "visible_p50_ms": (median(pooled("query", "V")), "ms"),
        "premise_query_p50_ms": (median(pooled("premise")), "ms"),
        "entail_p50_ms": (median(pooled("entails")), "ms"),
        "peak_rss_mb": (median(r["serve"]["peak_rss_kb"] for r in good) / 1024.0, "MB"),
        "store_bytes_per_triple": (
            median(ratio(r["store_bytes"], w.input_triples) for r in rounds if "store_bytes" in r), "B"),
        "write_bytes_per_user_byte": (median(ratio(x, w.update_user_bytes) for x in written), "ratio"),
    }


def _self_times(spans: List[Dict]) -> Dict[str, float]:
    """Seconds of self time per layer: a span minus what its children cover."""
    covered = [0.0] * len(spans)
    for e in spans:
        if e["parent"] is not None:
            covered[e["parent"]] += e["duration_ms"] or 0.0
    out: Dict[str, float] = {}
    for e in spans:
        own = max((e["duration_ms"] or 0.0) - covered[e["index"]], 0.0)
        layer = layer_of(e["name"])
        out[layer] = out.get(layer, 0.0) + own / 1e3
    return out


def per_layer(prep: Prepared, rounds: List[Dict]) -> Dict[str, Tuple[float, str]]:
    """Where the time and the bytes went (traced rounds, plus the ratio)."""
    script = prep.workload.script
    traced = [r for r in rounds if r["traced"] and r["serve"] and r["load"]]
    plain = [r for r in rounds if not r["traced"] and r["serve"]]
    m: Dict[str, Tuple[float, str]] = {}

    def spans(child: str, name: str, **where):
        """Durations (ms) of spans called *name*, filtered on script fields."""
        out = []
        for r in traced:
            for e in r[child]["spans"]:
                if e["name"] != name:
                    continue
                sop = script[e["attrs"]["i"]] if "i" in e["attrs"] else {}
                if all(sop.get(k) == v or e["attrs"].get(k) == v for k, v in where.items()):
                    out.append((e["duration_ms"], e["attrs"], sop))
        return out

    def ms(found):
        return [d for d, _a, _s in found]

    def total_s(found):
        return ratio(sum(ms(found)) / 1e3, len(traced))

    serve = [r["serve"] for r in traced]
    load = [r["load"] for r in traced]

    m["cli.import_s"] = (median([x["import_s"] for x in load + serve]), "s")

    ingest_s = median(ms(spans("load", "ingest.load"))) / 1e3
    m["ingest.load_s"] = (ingest_s, "s")
    m["ingest.rows_per_s"] = (ratio(median(x["ingest"]["rows"] for x in load), ingest_s), "1/s")
    m["ingest.spilled_runs"] = (median(x["ingest"]["spilled_runs"] for x in load), "count")
    m["ingest.terms"] = (median(x["ingest"]["terms"] for x in load), "count")
    m["core.interning.decode_s"] = (median(ms(spans("load", "core.interning.decode"))) / 1e3, "s")

    first_decode = spans("serve", "store.closure_decode", phase="first")
    closure_rows = median(a["rows"] for _d, a, _s in first_decode)
    m["store.add_all_s"] = (median(ms(spans("load", "store.add_all"))) / 1e3, "s")
    m["store.closure_decode_s"] = (median(ms(first_decode)) / 1e3, "s")
    m["store.closure_rows"] = (closure_rows, "count")
    m["store.rss_bytes_per_triple"] = (
        median(ratio(x["peak_rss_kb"] * 1024, x["triples"]) for x in serve), "B")
    commits = spans("serve", "store.commit")
    schema = [d for d, a, _s in commits if a["kind"][:2] in ("sc", "sp")]
    m["store.commit_instance_p50_ms"] = (
        median(d for d, a, _s in commits if a["kind"][:2] not in ("sc", "sp")), "ms")
    m["store.commit_schema_p50_ms"] = (median(schema), "ms")
    for key in ("incremental_insert", "incremental_delete", "recomputed"):
        m[f"store.maintenance.{key}"] = (median(x["maintenance"][key] for x in serve), "count")

    updates = [rec for r in traced for _s, rec in _records(prep, r, "update")]
    stalls = [rec["t_ms"] for rec in updates if rec["checkpointed"]]
    m["store.durable.checkpoint_s"] = (median(ms(spans("load", "store.durable.checkpoint"))) / 1e3, "s")
    m["store.durable.open_s"] = (median(ms(spans("serve", "store.durable.open"))) / 1e3, "s")
    m["store.durable.segment_bytes"] = (median(r["segment_bytes"] for r in traced), "B")
    m["store.durable.wal_bytes"] = (median(x["backend"]["wal_bytes"] for x in serve), "B")
    m["store.durable.terms_log_bytes"] = (median(x["backend"]["terms_log_bytes"] for x in serve), "B")
    m["store.durable.fsyncs"] = (
        median(x["counters"]["wal.fsyncs"] + x["counters"]["wal.terms.fsyncs"] for x in serve), "count")
    m["store.durable.wal_appends"] = (median(x["counters"]["wal.appends"] for x in serve), "count")
    m["store.durable.wal_bytes_per_commit"] = (
        median(rec["wal_growth"] for rec in updates if "wal_growth" in rec), "B")
    m["store.durable.checkpoints"] = (median(x["counters"]["durable.checkpoints"] for x in serve), "count")
    m["store.durable.checkpoint_stall_ms_max"] = (max(stalls, default=0.0), "ms")
    reopen = [rec for r in traced for _s, rec in _records(prep, r, "crash_check")]
    m["store.durable.reopen_s"] = (median(rec["t_ms"] for rec in reopen) / 1e3, "s")
    m["store.durable.recovered_batches"] = (median(rec["recovered_batches"] for rec in reopen), "count")

    materialize_s = median(ms(spans("serve", "datalog.materialize"))) / 1e3
    m["datalog.materialize_s"] = (materialize_s, "s")
    m["datalog.rows_per_s"] = (ratio(closure_rows, materialize_s), "1/s")

    closures = spans("serve", "semantics.closure")
    m["semantics.closure_s"] = (total_s(closures), "s")
    m["semantics.closure_rows"] = (median(a["rows"] for _d, a, _s in closures), "count")

    cores = spans("serve", "minimize.core", refresh=True) + spans("serve", "minimize.core", op="premise")
    m["minimize.core_s"] = (total_s(cores), "s")
    m["minimize.blanks_eliminated"] = (
        ratio(sum(a.get("blanks_eliminated", 0) for _d, a, _s in cores), len(traced)), "count")
    m["minimize.nf_refresh_p50_ms"] = (median(ms(spans("serve", "minimize.nf_refresh"))), "ms")

    m["rdfio.query_parse_p50_ms"] = (median(ms(spans("serve", "rdfio.parse_query"))), "ms")
    m["rdfio.serialize_p50_ms"] = (median(ms(spans("serve", "rdfio.serialize"))), "ms")

    matches = spans("serve", "core.planner.match", phase="A")
    m["core.planner.match_p50_ms"] = (median(ms(matches)), "ms")
    m["core.planner.match_p90_ms"] = (p90(ms(matches)), "ms")
    m["core.planner.first_touch_s"] = (
        median(ms(spans("serve", "core.planner.match", phase="first"))) / 1e3, "s")
    builds = spans("serve", "query.answers.instantiate", phase="A")
    m["core.planner.valuations_per_answer"] = (
        ratio(sum(a["valuations"] for _d, a, _s in matches),
              sum(a["single_answers"] for _d, a, _s in builds)), "ratio")
    m["query.answers.instantiate_p50_ms"] = (median(ms(builds)), "ms")
    m["query.answers.instantiate_p90_ms"] = (p90(ms(builds)), "ms")
    m["query.answers.instantiate_heavy_ms"] = (
        median(d for d, _a, s in builds if s["template"] == "heavy"), "ms")
    m["query.answers.triples_per_s"] = (
        ratio(sum(a["triples"] for _d, a, _s in builds), sum(ms(builds)) / 1e3), "1/s")

    for key in ("hits", "misses", "containment_hits", "plan_hits", "evictions"):
        m[f"query.cache.{key}"] = (median(x["counters"][f"query.cache.{key}"] for x in serve), "count")
    served = m["query.cache.hits"][0] + m["query.cache.containment_hits"][0]
    m["query.cache.hit_ratio"] = (ratio(served, served + m["query.cache.misses"][0]), "ratio")
    hit_ms, miss_ms = [], []
    for r in traced:
        misses = 0
        for _sop, rec in _records(prep, r, "query", "B"):
            now = rec["misses"]
            (miss_ms if now > misses else hit_ms).append(rec["t_ms"])
            misses = now
    m["query.cache.hit_p50_ms"] = (median(hit_ms), "ms")
    m["query.cache.miss_p50_ms"] = (median(miss_ms), "ms")
    m["query.containment.check_p50_ms"] = (
        median(rec["t_ms"] for r in traced for _s, rec in _records(prep, r, "contain")), "ms")

    # attribution: self time per layer, how much of the wall it explains,
    # and what tracing cost against the untraced rounds of this same run
    selfs: Dict[str, float] = {}
    wall = 0.0
    for r in traced:
        for child in ("load", "serve"):
            wall += r[child]["wall_s"]
            for layer, s in _self_times(r[child]["spans"]).items():
                selfs[layer] = selfs.get(layer, 0.0) + s
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (ratio(selfs.get(layer, 0.0), len(traced)), "s")
    attributed = sum(selfs.get(layer, 0.0) for layer in LAYERS)
    # the collector passes the client forces between operations are the
    # client's own time: reported, and left out of what layers must explain
    forced_gc = sum(ms(spans("serve", "bench.gc"))) / 1e3
    m["bench.gc_s"] = (ratio(forced_gc, len(traced)), "s")
    m["bench.self_s"] = (ratio(wall - attributed - forced_gc, len(traced)), "s")
    m["trace.coverage_ratio"] = (ratio(attributed, wall - forced_gc), "ratio")
    plain_wall = median(r["load_s"] + r["serve"]["wall_s"] for r in plain)
    traced_wall = median(r["load_s"] + r["serve"]["wall_s"] for r in traced)
    m["trace.overhead_ratio"] = (ratio(traced_wall, plain_wall), "ratio")
    return m


def check_round_counts(rounds: List[Dict]) -> List[str]:
    """Counts the program makes must not differ between rounds of one run."""
    notes = []
    for traced in (False, True):
        same = [r for r in rounds if r["traced"] == traced and r["serve"]]
        keys = [
            (r["serve"]["counters"], r["serve"]["maintenance"], r["serve"]["closure_rows"],
             [rec.get("written_bytes") for rec in r["serve"]["records"]])
            for r in same
        ]
        if any(k != keys[0] for k in keys[1:]):
            notes.append("exact counts differ between rounds of the same inputs")
    return notes


# ---------------------------------------------------------------------------
# One run of one workload
# ---------------------------------------------------------------------------


def run_workload(name: str, seed: int, seconds: float, traced: bool,
                 scale: str, tmp: Path) -> Dict:
    tmp.mkdir(parents=True)
    # the self-test profile checks behaviour, not steadiness: no repeats
    setup_repeats, min_rounds = (1, 1) if scale == "smoke" else (SETUP_REPEATS, MIN_ROUNDS)
    setups = []
    prep = None
    while len(setups) < setup_repeats or (
            sum(setups) < seconds / 5 and len(setups) < SETUP_MAX_REPEATS):
        t0 = time.monotonic()
        prep = prepare(name, seed, scale, tmp / f"setup{len(setups)}")
        setups.append(time.monotonic() - t0)

    rounds: List[Dict] = []
    t0 = time.monotonic()
    # a traced run alternates untraced and traced rounds, so the overhead
    # ratio compares like with like within one run: two pairs at least
    min_rounds += traced
    while len(rounds) < min_rounds or time.monotonic() - t0 < seconds:
        rounds.append(run_round(prep, tmp / f"round{len(rounds)}",
                                traced=traced and len(rounds) % 2 == 1))

    attempted, failed, notes = score(prep, rounds)
    count_notes = check_round_counts(rounds)
    attempted += 1
    failed += bool(count_notes)
    notes += count_notes
    # no metrics from a run in which a child died: the run has failed
    # operations, and half a set of numbers would be misleading
    if any(r["serve"] is None for r in rounds):
        metrics = {}
    elif traced:
        metrics = per_layer(prep, rounds)
    else:
        metrics = end_to_end(prep, rounds, statistics.median(setups))
    return {
        "workload": name, "traced": traced, "seed": seed, "rounds": len(rounds),
        "attempted": attempted, "failed": failed, "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "sizes": prep.workload.sizes, "input_triples": prep.workload.input_triples,
    }


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def atomic_write_json(path, payload) -> None:
    """Temp file beside the target, fsync, rename: never a half-written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, path)


def environment(seed: int, scale: str) -> Dict:
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=str(ROOT),
                          capture_output=True, text=True)
    return {
        "commit": head.stdout.strip() if head.returncode == 0 else "not a git checkout",
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
        "scale": scale,
    }


def _terminate(_signum, _frame):
    raise SystemExit(143)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(wl.WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"],
                        help="how long one run measures (whole rounds, at least three)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics (default: both)")
    parser.add_argument("--no-trace", action="store_const", const=0, dest="trace",
                        help="same as --trace 0")
    parser.add_argument("--smoke", action="store_true", help="tiny inputs (self-test)")
    parser.add_argument("--out", help="also write the full result as JSON (atomically)")
    args = parser.parse_args(argv)

    if not (SRC / "repro").is_dir():
        sys.stderr.write(f"benchmark: no program to measure ({SRC}/repro is missing)\n")
        return 2
    sys.path.insert(0, str(SRC))  # set-up's oracle runs the rule system in-process
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    modes = [bool(args.trace)] if args.trace is not None else [False, True]
    scale = "smoke" if args.smoke else "full"

    signal.signal(signal.SIGTERM, _terminate)
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    results = []
    try:
        build()
        for name in names:
            for traced in modes:
                tag = f"{name}-{'traced' if traced else 'plain'}"
                results.append(run_workload(name, args.seed, args.seconds, traced, scale, tmp / tag))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    merged: Dict[str, Dict] = {}
    for r in results:
        for note in r["notes"]:
            sys.stderr.write(f"FAILED {r['workload']}: {note}\n")
        for metric, mv in r["metrics"].items():
            print(f"{r['workload']} {metric} {mv['value']!r} {mv['unit']}")
            # one workload and mode: bare metric names (the driver's form)
            key = metric if len(names) == 1 and len(modes) == 1 else f"{r['workload']}:{metric}"
            merged[key] = mv
        share = r["failed"] / r["attempted"]
        print(f"{r['workload']} failed_ops_share {share!r} ratio")
    if args.out:
        atomic_write_json(args.out, {"environment": environment(args.seed, scale), "results": results})
    complete = all(r["metrics"] for r in results)
    print(json.dumps({
        "correct": failed == 0 and complete,
        "attempted": attempted,
        "failed": failed,
        "metrics": merged,
    }))
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
