#!/usr/bin/env python3
"""Ingest + ``load --close`` growth bench → ``BENCH_ingest.json``.

The scale-path measurements:

* **ingest** — streaming bulk load (``repro.ingest.load_ntriples``) of
  the deterministic synthetic ontology at growing sizes, reported as
  wall-clock and rows/s.  Near-linear ``serial_ms`` growth across the
  size ladder is the claim under test.
* **load_close** — the closure ``repro load --close`` computes: the
  ``arrays`` fixpoint (``rdfs_closure_rows``) straight from the
  loader's encoded rows, no boxed graph.
* **parse** — the one-shot ``parse_ntriples`` micro-benchmark guarding
  the streaming-tokenizer rewrite in ``rdfio/ntriples.py``.

``--smoke`` runs the CI-sized variant (up to 10⁵ triples); the full
run tops out at the 10⁶-triple load-and-close.  Both emit the same
JSON shape, sharing the 10⁵ row so ``check_regression.py`` always has
a common size to gate on.
"""

import argparse
import json
import os
import sys
import tempfile
import time

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_util import atomic_write_json

from repro.generators import synthetic_ontology_lines, write_synthetic_ontology
from repro.ingest import load_ntriples
from repro.rdfio.ntriples import parse_ntriples
from repro.semantics.closure import rdfs_closure_rows

#: Size ladders.  The smoke ladder stops at 10⁵ (CI-sized); the full
#: ladder extends to the million-triple target.  Both contain 10⁵, so
#: the regression gate always finds a common row.
SMOKE_SIZES = [10_000, 100_000]
FULL_SIZES = [100_000, 300_000, 1_000_000]

PARSE_LINES = 20_000

#: The obs-disabled overhead A/B (one size is enough: the check is a
#: ratio, not a growth curve).
OBS_OVERHEAD_SIZE = 10_000
OBS_OVERHEAD_REPEATS = 5
OBS_OVERHEAD_THRESHOLD = 1.1


def _best_of(fn, repeats):
    best = float("inf")
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, (time.perf_counter() - t0) * 1e3)
    return best, result


def bench_ingest(path, sizes, repeats):
    rows = []
    for size in sizes:
        write_synthetic_ontology(path, size)
        serial_ms, result = _best_of(lambda: load_ntriples(path), repeats)
        row = {
            "size": size,
            "triples": result.triples,
            "serial_ms": round(serial_ms, 1),
            "rows_per_s": round(size / (serial_ms / 1e3)),
        }
        rows.append(row)
        print(
            f"ingest    n={size:>9,}: serial {row['serial_ms']:>9.1f} ms "
            f"({row['rows_per_s']:,} rows/s)"
        )
    return rows


def bench_load_close(path, sizes, repeats):
    rows = []
    for size in sizes:
        write_synthetic_ontology(path, size)
        loaded = load_ntriples(path)
        close_ms, acc = _best_of(
            lambda: rdfs_closure_rows(loaded.runs.rows()), repeats
        )
        rows.append({
            "size": size,
            "closure_rows": len(acc),
            "arrays_ms": round(close_ms, 1),
        })
        print(
            f"close     n={size:>9,}: arrays {close_ms:>9.1f} ms, "
            f"|cl| = {len(acc):,}"
        )
    return rows


def bench_obs_overhead(path):
    """Interleaved A/B: plain vs obs-disabled ingest and close.

    Side A is the untouched call (instrumentation never enabled, no
    reporter anywhere); side B is the same call after an
    ``obs.enable()``/``obs.disable()`` cycle, carrying a
    constructed-but-disabled :class:`ProgressReporter` — exactly the
    state a CLI run without ``--profile``/``--progress`` is in after
    PR 8's telemetry wiring.  The sides interleave within one process
    and one moment, so a tight 1.1x threshold is safe where a cross-run
    ratio would be noise (same design as bench_guard_overhead.py).
    """
    from repro import obs
    from repro.obs.progress import ProgressReporter

    write_synthetic_ontology(path, OBS_OVERHEAD_SIZE)
    base_rows = load_ntriples(path).runs.rows()
    reporter = ProgressReporter(enabled=False)
    obs.enable()
    obs.disable()

    def interleaved(plain_fn, disabled_fn):
        plain = disabled = float("inf")
        for _ in range(OBS_OVERHEAD_REPEATS):
            t0 = time.perf_counter()
            plain_fn()
            plain = min(plain, (time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            disabled_fn()
            disabled = min(disabled, (time.perf_counter() - t0) * 1e3)
        return round(plain, 1), round(disabled, 1)

    rows = []
    for workload, plain_fn, disabled_fn in (
        (
            f"ingest serial n={OBS_OVERHEAD_SIZE}",
            lambda: load_ntriples(path),
            lambda: load_ntriples(path, progress=reporter),
        ),
        (
            f"arrays close n={OBS_OVERHEAD_SIZE}",
            lambda: rdfs_closure_rows(base_rows),
            lambda: rdfs_closure_rows(base_rows, progress=reporter),
        ),
    ):
        plain_ms, disabled_ms = interleaved(plain_fn, disabled_fn)
        overhead = round(disabled_ms / plain_ms, 3) if plain_ms else None
        rows.append(
            {
                "workload": workload,
                "plain_ms": plain_ms,
                "disabled_obs_ms": disabled_ms,
                "overhead": overhead,
            }
        )
        print(
            f"obs off   {workload}: plain {plain_ms:>9.1f} ms, "
            f"telemetry-off {disabled_ms:>9.1f} ms ({overhead}x)"
        )
    return {"rows": rows, "threshold": OBS_OVERHEAD_THRESHOLD}


def bench_parse(repeats):
    text = "\n".join(synthetic_ontology_lines(PARSE_LINES)) + "\n"
    parse_ms, graph = _best_of(lambda: parse_ntriples(text), repeats)
    print(
        f"parse     n={PARSE_LINES:>9,}: one-shot {parse_ms:>9.1f} ms "
        f"({len(graph):,} triples)"
    )
    return {"lines": PARSE_LINES, "parse_ms": round(parse_ms, 1)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true", help="CI-sized run: up to 1e5 triples"
    )
    ap.add_argument("--out", default="BENCH_ingest.json")
    args = ap.parse_args(argv)

    sizes, repeats = (SMOKE_SIZES, 1) if args.smoke else (FULL_SIZES, 2)

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        path = os.path.join(tmp, "onto.nt")
        payload = {
            "meta": {
                "mode": "smoke" if args.smoke else "full",
                "repeats": repeats,
                "python": sys.version.split()[0],
            },
            "ingest": {"rows": bench_ingest(path, sizes, repeats)},
            "load_close": {
                "rows": bench_load_close(path, sizes, repeats)
            },
            "parse": bench_parse(max(repeats, 2)),
            "obs_overhead": bench_obs_overhead(path),
        }
    atomic_write_json(args.out, payload)
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
