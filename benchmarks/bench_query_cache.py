#!/usr/bin/env python3
"""Query-cache serving benchmark → ``BENCH_query.json``.

Workloads over the closed synthetic ontology (the ingest family: fixed
schema, near-linear closure), all against one :class:`TripleStore` with
a warm normal form so only *serving* cost is measured:

* **containment-hit** — one general join query is admitted, then a
  stream of *distinct* subject-bound specializations is served by
  Theorem 5.5/5.7 certificates (filtering the cached valuation set)
  instead of re-searching.  Cold = each specialization evaluated from
  scratch.

* **zipf-stream** — a Zipf-weighted stream over a mixed pool (joins,
  single patterns, class memberships): the end-to-end hit-rate story,
  misses included.

* **disabled-overhead** — ``store.query`` with *no* cache attached vs a
  direct ``answers()`` call: the dispatch layer must stay ≤ 1.1x (the
  regression gate's within-run check, like the guard/obs overhead A/Bs).

``--smoke`` runs the CI-sized ladder.  Both ladders contain the 20k-
triple row so ``check_regression.py`` always finds a common size.
"""

import argparse
import json
import os
import random
import sys
import time

sys.path.insert(
    0,
    os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    ),
)
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from bench_util import atomic_write_json

from repro.core import Triple, URI, Variable
from repro.core.vocabulary import TYPE
from repro.generators import synthetic_ontology_graph
from repro.generators.ontology import DEFAULT_CLASSES
from repro.query import answers, head_body_query
from repro.query.cache import CONTAINMENT_HITS, HITS
from repro.store import TripleStore

#: Size ladders (input triples; the closure is ≈ 4–5x).  Both contain
#: the 20k row so the regression gate always has a common size.
SMOKE_SIZES = [20_000]
FULL_SIZES = [20_000, 60_000]

#: First leaf index of the synthetic ontology's class tree.
_LEAF_BASE = (DEFAULT_CLASSES - 1) // 2

_X, _Y, _Z = Variable("x"), Variable("y"), Variable("z")
_LINKED = URI("linked")


def selective_join(class_index, subject=None):
    """``(?x related ?y)(?y type c_m)``: wide domains, few solutions."""
    s = subject if subject is not None else _X
    body = [
        Triple(s, URI("related"), _Y),
        Triple(_Y, TYPE, URI(f"c{class_index}")),
    ]
    return head_body_query(head=[Triple(s, _LINKED, _Y)], body=body)


def edge_query(property_index):
    body = [Triple(_X, URI(f"p{property_index}"), _Y)]
    return head_body_query(head=[Triple(_X, _LINKED, _Y)], body=body)


def membership_query(class_index):
    body = [Triple(_X, TYPE, URI(f"c{class_index}"))]
    return head_body_query(head=[Triple(_X, TYPE, URI(f"c{class_index}"))], body=body)


def _time_ms(fn):
    t0 = time.perf_counter()
    fn()
    return (time.perf_counter() - t0) * 1e3


def _best_of(fn, repeats):
    return min(_time_ms(fn) for _ in range(repeats))


def _run_stream(store, stream):
    for q in stream:
        store.query(q)


def _merged_specializations(class_index):
    """Cyclic probes contained in the general join: σ merges x and y.

    ``(?u related ?u)(?u type c_m)`` is expensive to evaluate cold (the
    repeated-term filter walks every ``related`` row) but is served from
    the general entry's valuation set by checking ``w(x) = w(y)`` per
    cached valuation.  Three head/constraint variants keep every request
    in the stream distinct.
    """
    u = Variable("u")
    body = [
        Triple(u, URI("related"), u),
        Triple(u, TYPE, URI(f"c{class_index}")),
    ]
    return [
        head_body_query(head=[Triple(u, _LINKED, u)], body=body),
        head_body_query(
            head=[Triple(u, _LINKED, u)], body=body, constraints=[u]
        ),
        head_body_query(
            head=[Triple(u, TYPE, URI(f"c{class_index}"))], body=body
        ),
    ]


def bench_containment_tier(store, repeats):
    classes = [_LEAF_BASE + 8 * i for i in range(8)]  # populated leaves
    generals = [selective_join(m) for m in classes]
    stream = [q for m in classes for q in _merged_specializations(m)]

    store.disable_query_cache()
    cold_ms = _best_of(lambda: _run_stream(store, stream), repeats)

    best = float("inf")
    for _ in range(repeats):
        # Fresh cache per repeat: every request in the timed pass must
        # be a first-encounter containment hit, never an exact replay.
        cache = store.enable_query_cache()
        _run_stream(store, generals)  # admit the general entries (untimed)
        before = store.metrics.counter(CONTAINMENT_HITS)
        best = min(best, _time_ms(lambda: _run_stream(store, stream)))
        served = store.metrics.counter(CONTAINMENT_HITS) - before
        assert served == len(stream), (served, len(stream), cache.info())
        store.disable_query_cache()
    return cold_ms, best, len(stream)


def zipf_stream(rng, pool, length):
    weights = [1.0 / (rank + 1) for rank in range(len(pool))]
    return rng.choices(pool, weights=weights, k=length)


def bench_zipf(store, length, seed=7):
    rng = random.Random(seed)
    pool = (
        [selective_join(_LEAF_BASE + i) for i in range(6)]
        + [edge_query(10 + j) for j in range(9)]
        + [membership_query(_LEAF_BASE + 40 + m) for m in range(9)]
    )
    rng.shuffle(pool)
    stream = zipf_stream(rng, pool, length)

    store.disable_query_cache()
    cold_ms = _time_ms(lambda: _run_stream(store, stream))

    store.enable_query_cache()
    h0 = store.metrics.counter(HITS) + store.metrics.counter(CONTAINMENT_HITS)
    cached_ms = _time_ms(lambda: _run_stream(store, stream))
    h1 = store.metrics.counter(HITS) + store.metrics.counter(CONTAINMENT_HITS)
    store.disable_query_cache()
    return cold_ms, cached_ms, (h1 - h0) / length, length


def bench_disabled_overhead(store, repeats):
    """``store.query`` without a cache vs a direct ``answers()`` call."""
    pool = [edge_query(10 + j) for j in range(4)] + [
        membership_query(_LEAF_BASE + m) for m in range(4)
    ]
    store.disable_query_cache()
    dataset = store.dataset()
    target = store.normal_form()

    def plain():
        for q in pool:
            answers(q, dataset, target=target)

    def dispatched():
        _run_stream(store, pool)

    plain()  # joint warm-up
    # Interleave the two sides so they share every noise source.
    plain_ms = disabled_ms = float("inf")
    for _ in range(repeats + 2):
        plain_ms = min(plain_ms, _time_ms(plain))
        disabled_ms = min(disabled_ms, _time_ms(dispatched))
    return plain_ms, disabled_ms


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true", help="CI-sized run (20k triples)"
    )
    ap.add_argument("--out", default="BENCH_query.json")
    args = ap.parse_args(argv)

    sizes = SMOKE_SIZES if args.smoke else FULL_SIZES
    repeats = 2 if args.smoke else 3
    zipf_length = 120 if args.smoke else 240

    rows = []
    overhead_rows = []
    for n in sizes:
        store = TripleStore()
        store.add_all(synthetic_ontology_graph(n))
        store.normal_form()  # warm closure + core outside all timings

        containment = bench_containment_tier(store, repeats)
        if containment is not None:
            cold, cached, count = containment
            rows.append(
                {
                    "workload": "containment-hit",
                    "size": n,
                    "queries": count,
                    "cold_ms": cold,
                    "cached_ms": cached,
                    "speedup": cold / cached if cached else None,
                }
            )

        cold, cached, hit_rate, length = bench_zipf(store, zipf_length)
        rows.append(
            {
                "workload": "zipf-stream",
                "size": n,
                "queries": length,
                "cold_ms": cold,
                "cached_ms": cached,
                "speedup": cold / cached if cached else None,
                "hit_rate": hit_rate,
            }
        )

        plain_ms, disabled_ms = bench_disabled_overhead(store, repeats)
        overhead_rows.append(
            {
                "workload": "query dispatch",
                "size": n,
                "plain_ms": plain_ms,
                "disabled_ms": disabled_ms,
                "overhead": disabled_ms / plain_ms if plain_ms else None,
            }
        )

    payload = {
        "meta": {
            "mode": "smoke" if args.smoke else "full",
            "repeats": repeats,
            "python": sys.version.split()[0],
        },
        "query_cache": {"rows": rows},
        "disabled_overhead": {"rows": overhead_rows},
    }
    atomic_write_json(args.out, payload)
    for row in rows:
        print(
            f"{row['workload']:18s} n={row['size']:<7d} "
            f"cold {row['cold_ms']:9.2f} ms  cached {row['cached_ms']:8.2f} ms "
            f"({row['speedup']:.1f}x)"
            + (
                f"  hit-rate {row['hit_rate']:.2f}"
                if "hit_rate" in row
                else ""
            )
        )
    for row in overhead_rows:
        print(
            f"{row['workload']:18s} n={row['size']:<7d} "
            f"plain {row['plain_ms']:9.2f} ms  disabled {row['disabled_ms']:8.2f} ms "
            f"({row['overhead']:.3f}x)"
        )
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
