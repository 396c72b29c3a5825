"""The benchmark's client: one child process that loads or serves a store.

Run by ``run.py`` as ``python child.py PLAN.json``; the plan names the
mode, the generated files and where to leave the result.  The child
receives the generated inputs only — never an expected value.

Two ways of doing the same work:

* **untraced** (end-to-end numbers): user entry points only —
  ``TripleStore.open``, ``store.query``, ``store.transaction`` /
  ``add`` / ``remove``, ``entails``.  (The untraced *load* is not this
  file at all: ``run.py`` spawns ``python -m repro.cli load … --store``.)
* **traced** (per-layer numbers): the same operations decomposed into
  the layers' public calls, each inside a span of a :class:`Tracer`
  this process owns.  The global ``OBS`` stays off.  Spans are kept in
  memory and written as a Chrome trace when the child ends.

Every operation is timed from this side of the API and its output is
reduced to ``(cardinality, sha256)`` outside the timed region.
"""

import time

_T0 = time.monotonic()  # process birth, as near as Python code can see it

import gc
import json
import os
import resource
import shutil
import sys
import traceback
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import canonical_digest  # noqa: E402  (no repro imports there)


def _now() -> float:
    return time.monotonic()


def _wchar() -> int:
    """Bytes this process has passed to write(2) so far (exact)."""
    with open("/proc/self/io", encoding="ascii") as f:
        for line in f:
            if line.startswith("wchar:"):
                return int(line.split()[1])
    raise RuntimeError("/proc/self/io has no wchar line")


def _import_repro():
    """Import the program; returns (its entry points, seconds it took)."""
    t0 = _now()
    import repro.cli  # noqa: F401  what `python -m repro.cli` pays too
    from repro.core.homomorphism import find_map
    from repro.ingest import load_ntriples
    from repro.minimize.core_graph import core
    from repro.obs.export import write_chrome_trace
    from repro.obs.tracing import Tracer
    from repro.query.answers import answers_from_valuations
    from repro.query.containment import contained_standard
    from repro.query.matching import iter_matchings
    from repro.rdfio.ntriples import parse_ntriples, serialize_ntriples
    from repro.rdfio.query_syntax import parse_query
    from repro.semantics import closure, entails
    from repro.store import TripleStore

    seconds = _now() - t0
    return SimpleNamespace(**locals()), seconds


def _tracer(ns, import_s: float, traced: bool):
    """A benchmark-owned tracer; the import is folded in as a span.

    The import finished before any tracer could exist, so it enters
    through ``Tracer.merge`` — the public door for spans recorded
    elsewhere — which places it so that it ends now.
    """
    if not traced:
        return ns.Tracer.disabled()
    tracer = ns.Tracer()
    tracer.merge([{
        "index": 0, "name": "cli.import", "attrs": {}, "parent": None,
        "start_ms": 0.0, "duration_ms": import_s * 1e3,
    }])
    return tracer


def _finish(plan, result, tracer, ns) -> None:
    result["wall_s"] = result.pop("_t_end") - _T0
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer.enabled:
        result["spans"] = tracer.snapshot()
        ns.write_chrome_trace(tracer, plan["trace_out"])
    with open(plan["result"], "w", encoding="utf-8") as f:
        json.dump(result, f)


# ---------------------------------------------------------------------------
# load: file -> checkpointed durable store (traced form of `repro load --store`)
# ---------------------------------------------------------------------------


def load(plan) -> None:
    ns, import_s = _import_repro()
    tr = _tracer(ns, import_s, True)
    with tr.span("ingest.load"):
        loaded = ns.load_ntriples(plan["data"])
    with tr.span("core.interning.decode"):
        triples = loaded.terms.decode_rows(loaded.runs.rows())
    with tr.span("store.durable.open"):
        store = ns.TripleStore.open(plan["store"])
    try:
        with tr.span("store.add_all"):
            added = store.add_all(triples)
        with tr.span("store.durable.checkpoint"):
            store.checkpoint()
    finally:
        store.close()
    result = {
        "import_s": import_s,
        "added": added,
        "ingest": {
            "rows": loaded.triples,
            "spilled_runs": loaded.spilled_runs,
            "terms": len(loaded.terms),
        },
        "_t_end": _now(),
    }
    _finish(plan, result, tr, ns)


# ---------------------------------------------------------------------------
# serve: open -> first answer -> queries -> updates -> premises -> entails
# ---------------------------------------------------------------------------

_CACHE_COUNTERS = (
    "query.cache.hits", "query.cache.misses", "query.cache.containment_hits",
    "query.cache.plan_hits", "query.cache.evictions",
)
_STORE_COUNTERS = _CACHE_COUNTERS + (
    "wal.fsyncs", "wal.appends", "wal.terms.fsyncs", "wal.terms.appends",
    "durable.checkpoints",
)


class Server:
    def __init__(self, plan, ns, tracer):
        self.plan = plan
        self.ns = ns
        self.tr = tracer
        self.traced = tracer.enabled
        self.store = None
        self.cache_on = False
        #: any ground triple of the data: ``store.entails`` on it builds
        #: the closure fixpoint and does nothing else
        self.probe = ns.parse_ntriples(plan["probe"]).sorted_triples()[0]

    def counters(self):
        c = self.store.metrics.counter
        return {name: int(c(name)) for name in _STORE_COUNTERS}

    # -- answering ---------------------------------------------------------

    def answer(self, i: int, op) -> str:
        """One premise-free query, parse -> serialized answer."""
        ns, tr, store = self.ns, self.tr, self.store
        if not self.traced:
            q = ns.parse_query(op["query"])
            return ns.serialize_ntriples(store.query(q))
        with tr.span("rdfio.parse_query", i=i):
            q = ns.parse_query(op["query"])
        if self.cache_on:
            with tr.span("query.cache.answer", i=i):
                graph = store.query(q)
        else:
            refresh = op["phase"] in ("first", "V")
            if op["phase"] == "first":
                with tr.span("datalog.materialize", i=i):
                    store.entails(self.probe)
            with tr.span("store.closure_decode", i=i, refresh=refresh) as span:
                closed = store.closure()
                span.annotate(rows=len(closed))
            with tr.span("minimize.nf_refresh" if op["phase"] == "V" else "minimize.core",
                         i=i, refresh=refresh) as span:
                target = store.normal_form()
            if refresh:
                span.annotate(blanks_eliminated=len(closed.bnodes()) - len(target.bnodes()))
            with tr.span("store.dataset", i=i):
                database = store.dataset()
            graph = self.match_and_build(i, q, database, target)
        with tr.span("rdfio.serialize", i=i):
            return ns.serialize_ntriples(graph)

    def match_and_build(self, i, q, database, target):
        ns, tr = self.ns, self.tr
        with tr.span("core.planner.match", i=i) as span:
            valuations = list(ns.iter_matchings(q, database, target=target))
            span.annotate(valuations=len(valuations))
        with tr.span("query.answers.instantiate", i=i) as span:
            graph = ns.answers_from_valuations(q, valuations)
            span.annotate(triples=len(graph))
        # distinct single answers = distinct valuations of what the head
        # mentions (a head blank is a Skolem term over every variable)
        head = q.head
        keep = q.body.variables() if head.bnodes() else head.variables()
        span.annotate(single_answers=len({tuple(v[x] for x in keep) for v in valuations}))
        return graph

    def premise(self, i: int, op) -> str:
        """A query with a premise: ``nf(D + P)`` is computed per query."""
        ns, tr, store = self.ns, self.tr, self.store
        if not self.traced:
            return ns.serialize_ntriples(store.query(ns.parse_query(op["query"])))
        with tr.span("rdfio.parse_query", i=i):
            q = ns.parse_query(op["query"])
        with tr.span("store.dataset", i=i):
            database = store.dataset()
        with tr.span("semantics.closure", i=i) as span:
            closed = ns.closure(database + q.premise)
            span.annotate(rows=len(closed))
        with tr.span("minimize.core", i=i) as span:
            target = ns.core(closed)
            span.annotate(blanks_eliminated=len(closed.bnodes()) - len(target.bnodes()))
        graph = self.match_and_build(i, q, database, target)
        with tr.span("rdfio.serialize", i=i):
            return ns.serialize_ntriples(graph)

    def entails(self, i: int, op) -> bool:
        ns, tr, store = self.ns, self.tr, self.store
        if not self.traced:
            return ns.entails(store.dataset(), ns.parse_ntriples(op["goal"]))
        with tr.span("rdfio.parse_goal", i=i):
            goal = ns.parse_ntriples(op["goal"])
        with tr.span("store.dataset", i=i):
            database = store.dataset()
        if goal.issubgraph(database):
            return True
        with tr.span("semantics.closure", i=i) as span:
            closed = ns.closure(database)
            span.annotate(rows=len(closed))
        with tr.span("core.planner.find_map", i=i):
            return ns.find_map(goal, closed) is not None

    # -- writing -------------------------------------------------------------

    def update(self, i: int, op, record) -> None:
        """One durable commit; ``t_ms`` is begin -> commit acknowledged."""
        ns, store = self.ns, self.store
        parse = ns.parse_ntriples
        removes = list(parse("\n".join(op["remove"])))
        adds = list(parse("\n".join(op["add"])))
        info = store.backend.info()
        before = (_wchar(), info["wal_bytes"], info["terms_log_bytes"],
                  int(store.metrics.counter("durable.checkpoints")))
        t0 = _now()
        with self.tr.span("store.commit", i=i, kind=op["kind"]):
            with store.transaction():
                for t in removes:
                    store.remove(t)
                for t in adds:
                    store.add(t)
        record["t_ms"] = (_now() - t0) * 1e3
        info = store.backend.info()
        record["written_bytes"] = _wchar() - before[0]
        record["checkpointed"] = int(store.metrics.counter("durable.checkpoints")) - before[3]
        record["terms_log_growth"] = info["terms_log_bytes"] - before[2]
        if not record["checkpointed"]:
            record["wal_growth"] = info["wal_bytes"] - before[1]

    def crash_check(self, i: int, record) -> str:
        """Reopen what a power loss would leave: each log cut at its last fsync.

        Killing the process would leave the OS cache intact, so the
        unflushed bytes are discarded here, by truncation.
        """
        store = self.store
        points = store.backend.sync_points()
        dest = Path(self.plan["crash_dir"])
        shutil.copytree(self.plan["store"], dest)
        for name, synced in points.items():
            target = dest / name
            if target.exists():
                with open(target, "r+b") as f:
                    f.truncate(min(target.stat().st_size, synced))
        t0 = _now()
        with self.tr.span("store.durable.reopen", i=i):
            reopened = self.ns.TripleStore.open(dest)
        record["t_ms"] = (_now() - t0) * 1e3
        try:
            record["recovered_batches"] = int(
                reopened.metrics.counter("wal.recovered_batches"))
            return self.ns.serialize_ntriples(reopened.dataset())
        finally:
            reopened.close()

    # -- the script -----------------------------------------------------------

    def run(self, ops):
        records = []
        deferred = []
        phase = None
        for i, op in enumerate(ops):
            kind = op["op"]
            if kind == "contain":
                deferred.append((i, op))
                continue
            # Settle the collector (untimed) before every operation outside
            # the two bulk query phases, and once where a phase starts.
            # Whether its full pass (tens of ms on these heaps) lands inside
            # a 200 ms operation is otherwise decided by the operations
            # before it, and identical inputs time +-25 %.
            if op.get("phase") not in ("A", "B") or op["phase"] != phase:
                with self.tr.span("bench.gc", i=i):
                    gc.collect()
            phase = op.get("phase")
            record = {"i": i}
            try:
                t0 = _now()
                if kind == "query":
                    out = self.answer(i, op)
                    record["t_ms"] = (_now() - t0) * 1e3
                    record["n"], record["sha"] = canonical_digest(out)
                    if self.cache_on:
                        record["misses"] = int(self.store.metrics.counter("query.cache.misses"))
                elif kind == "premise":
                    out = self.premise(i, op)
                    record["t_ms"] = (_now() - t0) * 1e3
                    record["n"], record["sha"] = canonical_digest(out)
                elif kind == "entails":
                    record["value"] = self.entails(i, op)
                    record["t_ms"] = (_now() - t0) * 1e3
                elif kind == "update":
                    self.update(i, op, record)
                elif kind == "cache":
                    if op["enable"]:
                        self.store.enable_query_cache()
                    else:
                        self.store.disable_query_cache()
                    self.cache_on = op["enable"]
                elif kind == "crash_check":
                    out = self.crash_check(i, record)
                    record["n"], record["sha"] = canonical_digest(out)
                else:
                    raise ValueError(f"unknown op {kind!r}")
            except Exception:  # the script must go on; the op counts as failed
                record["error"] = traceback.format_exc(limit=6)
            records.append(record)
        return records, deferred

    def containment(self, deferred, records) -> None:
        """``contained_standard`` on cached-phase pairs (traced runs only).

        Extra work the untraced run does not do, so it happens after
        the wall clock of the comparison has stopped.
        """
        ns = self.ns
        for i, op in deferred:
            record = {"i": i}
            try:
                q1, q2 = ns.parse_query(op["q1"]), ns.parse_query(op["q2"])
                t0 = _now()
                record["value"] = ns.contained_standard(q1, q2)
                record["t_ms"] = (_now() - t0) * 1e3
            except Exception:
                record["error"] = traceback.format_exc(limit=6)
            records.append(record)


def serve(plan) -> None:
    ns, import_s = _import_repro()
    tr = _tracer(ns, import_s, plan["traced"])
    with open(plan["script"], encoding="utf-8") as f:
        script = json.load(f)
    server = Server(plan, ns, tr)
    with tr.span("store.durable.open"):
        store = ns.TripleStore.open(
            plan["store"], wal_checkpoint_bytes=script["wal_checkpoint_bytes"], fsync=True
        )
    t_open = _now()
    server.store = store
    try:
        records, deferred = server.run(script["ops"])
        t_end = _now()
        result = {
            "import_s": import_s,
            "t_open": t_open,
            "records": records,
            "counters": server.counters(),
            "maintenance": dict(store.stats),
            "triples": len(store),
            "closure_rows": len(store.closure()),
            "backend": {k: v for k, v in store.backend.info().items()
                        if k in ("generation", "wal_bytes", "terms_log_bytes")},
            "_t_end": t_end,
        }
        if plan["traced"]:
            server.containment(deferred, records)
    finally:
        store.close()
    _finish(plan, result, tr, ns)


def main(argv) -> int:
    with open(argv[0], encoding="utf-8") as f:
        plan = json.load(f)
    {"load": load, "serve": serve}[plan["mode"]](plan)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
