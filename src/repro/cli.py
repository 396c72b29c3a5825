"""Command-line interface: the paper's operations over files.

Usage examples::

    repro-rdf closure data.nt              # print cl(G)
    repro-rdf closure data.nt --rho        # reflexivity-free closure
    repro-rdf core data.nt                 # redundancy elimination
    repro-rdf nf data.nt                   # normal form
    repro-rdf lean data.nt                 # leanness verdict (+ witness)
    repro-rdf entails premise.nt goal.nt   # RDFS entailment
    repro-rdf equivalent a.nt b.nt
    repro-rdf query query.rq data.nt       # tableau query (CONSTRUCT/WHERE)
    repro-rdf contains q1.rq q2.rq         # q1 ⊑p q2 (--entailment for ⊑m)
    repro-rdf path 'type/sc*' data.nt --source Picasso --rdfs
    repro-rdf stats data.nt                # structural profile
    repro-rdf dot data.nt                  # Graphviz export
    repro-rdf explain entails g1.nt g2.nt  # planner introspection
    repro-rdf explain query q.rq data.nt
    repro-rdf --profile closure data.nt    # + metrics/trace summary

``--profile`` (before the subcommand) enables the :mod:`repro.obs`
instrumentation for the duration of the command and appends a
metrics/trace summary as ``#``-prefixed comment lines (valid N-Triples
comments, so piped graph output stays parseable);
``--profile-json PATH`` additionally dumps the full registry snapshot
and span list as JSON.

Graph files use the N-Triples-style syntax of :mod:`repro.rdfio`;
query files use the CONSTRUCT/WHERE syntax of
:mod:`repro.rdfio.query_syntax`.  ``-`` reads from stdin.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from .core.graph import RDFGraph
from .core.terms import URI

__all__ = ["main", "build_parser"]


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _load_graph(path: str) -> RDFGraph:
    from .rdfio.ntriples import parse_ntriples

    return parse_ntriples(_read_text(path))


def _load_query(path: str):
    from .rdfio.query_syntax import parse_query

    return parse_query(_read_text(path))


def _print_graph(graph: RDFGraph, out) -> None:
    from .rdfio.ntriples import serialize_ntriples

    out.write(serialize_ntriples(graph))


def cmd_closure(args, out) -> int:
    graph = _load_graph(args.graph)
    if args.rho:
        from .semantics import rho_closure

        _print_graph(rho_closure(graph), out)
    else:
        from .semantics import closure

        _print_graph(closure(graph), out)
    return 0


def cmd_core(args, out) -> int:
    from .minimize import core

    _print_graph(core(_load_graph(args.graph)), out)
    return 0


def cmd_nf(args, out) -> int:
    from .minimize import normal_form

    _print_graph(normal_form(_load_graph(args.graph)), out)
    return 0


def cmd_minimal(args, out) -> int:
    from .minimize import minimal_representation

    _print_graph(minimal_representation(_load_graph(args.graph)), out)
    return 0


def cmd_lean(args, out) -> int:
    from .minimize import non_lean_witness

    graph = _load_graph(args.graph)
    witness = non_lean_witness(graph)
    if witness is None:
        out.write("lean\n")
        return 0
    out.write("not lean\n")
    if args.witness:
        out.write(f"witness: {witness}\n")
    return 1


def _budget_from_args(args):
    """A Budget from --timeout-ms/--max-steps, or None when neither set."""
    timeout_ms = getattr(args, "timeout_ms", None)
    max_steps = getattr(args, "max_steps", None)
    if timeout_ms is None and max_steps is None:
        return None
    from .robustness import Budget

    return Budget(deadline_ms=timeout_ms, max_steps=max_steps)


def _add_trace_flag(p) -> None:
    p.add_argument(
        "--trace-out",
        metavar="PATH",
        help="write a Chrome trace_event JSON of the command's spans to "
        "PATH (view at https://ui.perfetto.dev); implies instrumentation",
    )


def _add_budget_flags(p) -> None:
    p.add_argument(
        "--timeout-ms",
        type=float,
        metavar="MS",
        help="wall-clock budget; an exceeded deadline reports 'unknown' "
        "and exits 3 instead of running on",
    )
    p.add_argument(
        "--max-steps",
        type=int,
        metavar="N",
        help="search-step budget (backtracks/derivations); exhaustion "
        "reports 'unknown' and exits 3",
    )


def cmd_entails(args, out) -> int:
    g1 = _load_graph(args.premise_graph)
    g2 = _load_graph(args.conclusion_graph)
    budget = _budget_from_args(args)
    if budget is not None:
        from .robustness import entails_within

        answer = entails_within(g1, g2, budget, simple=args.simple)
        if answer.unknown:
            ev = answer.evidence
            out.write(
                f"unknown ({answer.reason} budget tripped after "
                f"{ev.get('steps', 0)} steps, "
                f"{ev.get('elapsed_ms', 0)} ms)\n"
            )
            return 3
        verdict = answer.proved
    else:
        if args.simple:
            from .semantics import simple_entails as decide
        else:
            from .semantics import entails as decide
        verdict = decide(g1, g2)
    out.write(("entailed" if verdict else "not entailed") + "\n")
    return 0 if verdict else 1


def cmd_equivalent(args, out) -> int:
    from .semantics import equivalent

    verdict = equivalent(_load_graph(args.graph_a), _load_graph(args.graph_b))
    out.write(("equivalent" if verdict else "not equivalent") + "\n")
    return 0 if verdict else 1


def cmd_query(args, out) -> int:
    query = _load_query(args.query)
    database = _load_graph(args.graph)

    if getattr(args, "cached", False):
        # Serve through a store with the two-tier query cache attached:
        # identical answers (property-tested), but repeated/subsumed
        # queries in one process are filtered from cached valuations
        # instead of re-searched.
        from .store import TripleStore

        store = TripleStore()
        store.add_all(database)
        store.enable_query_cache()

        def _answer():
            return store.query(query, semantics=args.semantics)
    else:
        from .query import answers

        def _answer():
            return answers(query, database, semantics=args.semantics)

    budget = _budget_from_args(args)
    if budget is None:
        _print_graph(_answer(), out)
        return 0
    from .robustness import BudgetExceeded, guarded

    try:
        with guarded(budget):
            result = _answer()
    except BudgetExceeded as err:
        out.write(f"# unknown ({err.reason} budget tripped: {err})\n")
        return 3
    _print_graph(result, out)
    return 0


def cmd_contains(args, out) -> int:
    q1 = _load_query(args.query_a)
    q2 = _load_query(args.query_b)
    if args.entailment:
        from .query import contained_entailment as decide
    else:
        from .query import contained_standard as decide
    verdict = decide(q1, q2)
    out.write(("contained" if verdict else "not contained") + "\n")
    return 0 if verdict else 1


def cmd_path(args, out) -> int:
    from .navigation import evaluate_path, parse_path, reachable_from

    expr = parse_path(args.expression)
    graph = _load_graph(args.graph)
    if args.source is not None:
        nodes = reachable_from(expr, graph, URI(args.source), rdfs=args.rdfs)
        for node in sorted(nodes, key=str):
            out.write(f"{node}\n")
    else:
        pairs = evaluate_path(expr, graph, rdfs=args.rdfs)
        for x, y in sorted(pairs, key=lambda p: (str(p[0]), str(p[1]))):
            out.write(f"{x}\t{y}\n")
    return 0


def cmd_load(args, out) -> int:
    """Bulk-load an N-Triples file; optionally close it, partitioned."""
    import time

    from .ingest import (
        DEFAULT_CHUNK_LINES,
        DEFAULT_MAX_MEMORY_MB,
        load_ntriples,
    )
    from .obs.progress import ProgressReporter, progress_scope

    if args.max_memory_mb is None:
        max_memory_mb = DEFAULT_MAX_MEMORY_MB
    elif args.max_memory_mb <= 0:
        max_memory_mb = None
    else:
        max_memory_mb = args.max_memory_mb
    progress = None
    if args.progress or args.progress_json:
        # Heartbeats go to stderr so piped graph output stays clean.
        progress = ProgressReporter(json_lines=args.progress_json)
    with progress_scope(progress):
        t0 = time.perf_counter()
        result = load_ntriples(
            args.graph if args.graph != "-" else sys.stdin,
            workers=args.parallel,
            chunk_lines=args.chunk_lines or DEFAULT_CHUNK_LINES,
            strict=not args.tolerant,
            max_memory_mb=max_memory_mb,
            progress=progress,
        )
        load_ms = (time.perf_counter() - t0) * 1000.0
        out.write(f"triples:            {result.triples}\n")
        out.write(f"lines:              {result.lines}\n")
        out.write(f"chunks:             {result.chunks}\n")
        out.write(f"skipped lines:      {len(result.issues)}\n")
        out.write(f"spilled runs:       {result.spilled_runs}\n")
        out.write(f"terms interned:     {len(result.terms)}\n")
        out.write(f"load ms:            {load_ms:.1f}\n")
        if args.close:
            from .semantics.closure import rdfs_closure_partitioned_rows

            t1 = time.perf_counter()
            acc = rdfs_closure_partitioned_rows(
                result.runs.rows(),
                shards=args.shards,
                max_memory_mb=max_memory_mb,
                progress=progress,
            )
            close_ms = (time.perf_counter() - t1) * 1000.0
            out.write(f"closure rows:       {len(acc)}\n")
            out.write(f"closure shards:     {args.shards}\n")
            out.write(f"close ms:           {close_ms:.1f}\n")
    if args.store:
        # Persist the loaded graph into a durable store directory: one
        # add_all batch (a single fsynced WAL commit), then a checkpoint
        # so a later open reads compact sorted segments instead of
        # replaying the whole load from the log.
        from .store import TripleStore

        t2 = time.perf_counter()
        store = TripleStore.open(args.store)
        try:
            added = store.add_all(result.terms.decode_rows(result.runs.rows()))
            store.checkpoint()
            info = store.backend.info()
        finally:
            store.close()
        persist_ms = (time.perf_counter() - t2) * 1000.0
        out.write(f"store:              {args.store}\n")
        out.write(f"store new triples:  {added}\n")
        out.write(f"store generation:   {info['generation']}\n")
        out.write(f"persist ms:         {persist_ms:.1f}\n")
    if args.out:
        from .rdfio.ntriples import serialize_ntriples

        target = acc.rows() if args.close else result.runs.rows()
        graph = RDFGraph._from_trusted(result.terms.decode_rows(target))
        Path(args.out).write_text(serialize_ntriples(graph))
        out.write(f"wrote:              {args.out}\n")
    return 0


def cmd_open(args, out) -> int:
    """Open a durable store directory and print its state.

    Opening *is* recovery: if the last process died mid-commit, the WAL
    tail is truncated and committed batches are replayed before anything
    is reported, so the ``wal.*`` counters below describe what this open
    actually did.
    """
    from .store import TripleStore

    store = TripleStore.open(args.store)
    try:
        info = store.backend.info()
        out.write(f"store:              {info['path']}\n")
        out.write(f"generation:         {info['generation']}\n")
        out.write(f"wal file:           {info['wal_file']}\n")
        out.write(f"wal bytes:          {info['wal_bytes']}\n")
        out.write(f"terms log bytes:    {info['terms_log_bytes']}\n")
        out.write(f"next commit seq:    {info['next_seq']}\n")
        out.write(f"terms interned:     {len(store.term_dict)}\n")
        names = store.graph_names()
        out.write(f"graphs:             {len(names)}\n")
        for name in names:
            out.write(f"  graph {name}: {len(store.graph(name))}\n")
        out.write(f"triples (dataset):  {len(store.dataset())}\n")
        for counter in (
            "wal.recovered_batches",
            "wal.torn_tail_bytes",
            "wal.appends",
            "wal.fsyncs",
        ):
            key = f"{counter}:"
            out.write(f"{key:24s}{int(store.metrics.counter(counter))}\n")
        if args.checkpoint:
            store.checkpoint()
            out.write(
                f"checkpointed:       generation "
                f"{store.backend.info()['generation']}\n"
            )
    finally:
        store.close()
    return 0


def cmd_dump(args, out) -> int:
    """Serialize a durable store's contents as N-Triples."""
    from .rdfio.ntriples import serialize_ntriples
    from .store import TripleStore

    store = TripleStore.open(args.store)
    try:
        if args.graph is not None:
            if args.graph not in store.graph_names():
                print(
                    f"error: no graph named {args.graph!r} in {args.store}",
                    file=sys.stderr,
                )
                return 2
            graph = store.graph(args.graph)
        else:
            graph = store.dataset()
        text = serialize_ntriples(graph)
    finally:
        store.close()
    if args.out:
        Path(args.out).write_text(text)
        out.write(f"wrote:              {args.out}\n")
    else:
        out.write(text)
    return 0


def cmd_metrics(args, out) -> int:
    """Re-export a ``--profile-json`` snapshot as Prometheus text or JSON."""
    import json

    from .obs import prometheus_text

    payload = json.loads(_read_text(args.snapshot))
    # Accept both the --profile-json payload ({"metrics": ..., "trace":
    # ...}) and a bare registry snapshot.
    snapshot = payload
    if isinstance(payload, dict) and "metrics" in payload:
        snapshot = payload["metrics"]
    if not isinstance(snapshot, dict) or not (
        {"counters", "gauges", "histograms"} & set(snapshot)
    ):
        print(
            f"error: {args.snapshot}: not a metrics snapshot "
            "(expected --profile-json output or a registry snapshot)",
            file=sys.stderr,
        )
        return 2
    if args.format == "prom":
        out.write(prometheus_text(snapshot))
    else:
        out.write(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    return 0


def cmd_stats(args, out) -> int:
    from .minimize import is_lean
    from .relational import blank_treewidth_upper_bound
    from .store import TripleStore

    graph = _load_graph(args.graph)
    out.write(f"triples:            {len(graph)}\n")
    out.write(f"universe size:      {len(graph.universe())}\n")
    out.write(f"blank nodes:        {len(graph.bnodes())}\n")
    out.write(f"predicates:         {len(graph.predicates())}\n")
    out.write(f"ground:             {graph.is_ground()}\n")
    out.write(f"simple (Def 2.2):   {graph.is_simple()}\n")
    out.write(f"blank cycles:       {graph.has_blank_cycle()}\n")
    out.write(f"blank treewidth ≤:  {blank_treewidth_upper_bound(graph)}\n")
    if len(graph) <= args.lean_limit:
        out.write(f"lean (Def 3.7):     {is_lean(graph)}\n")
    else:
        out.write("lean (Def 3.7):     skipped (use --lean-limit to raise)\n")
    # Load the graph into a store and materialize its closure, so the
    # profile covers the write path's maintenance counters too.
    store = TripleStore()
    store.add_all(graph)
    out.write(f"closure size:       {len(store.closure())}\n")
    for key, value in store.stats.items():
        out.write(f"{key + ':':20s}{value}\n")
    # Dictionary-encoding layer: interned-term population and traffic
    # through the store's shared TermDict.
    for key, value in store.term_dict.stats().items():
        out.write(f"{'term_dict.' + key + ':':20s}{value}\n")
    # Closure-kernel dispatch: how often each kernel ran in this
    # process, so profiles are attributable.
    from .semantics.closure import KERNEL_DISPATCH

    for kernel in sorted(KERNEL_DISPATCH):
        key = f"kernel.dispatch.{kernel}:"
        out.write(f"{key:20s}{KERNEL_DISPATCH[kernel]}\n")
    # Query-cache counters (declare-at-zero: the cache is opt-in per
    # store, so a profile that never enabled it shows the full row set
    # at 0 rather than omitting it).
    from .query.cache import (
        CONTAINMENT_HITS,
        EVICTIONS,
        HITS,
        INVALIDATIONS,
        MISSES,
        PLAN_HITS,
    )

    for name in (
        HITS,
        MISSES,
        CONTAINMENT_HITS,
        PLAN_HITS,
        INVALIDATIONS,
        EVICTIONS,
    ):
        key = f"{name}:"
        out.write(f"{key:32s}{int(store.metrics.counter(name))}\n")
    return 0


def cmd_dot(args, out) -> int:
    from .rdfio.dot import to_dot

    out.write(to_dot(_load_graph(args.graph)))
    return 0


def cmd_explain(args, out) -> int:
    """Planner introspection: print the MatchPlan a decision would run."""
    budget = _budget_from_args(args)

    def _plan():
        if args.kind == "entails":
            from .semantics import entailment_plan

            g1 = _load_graph(args.left)
            g2 = _load_graph(args.right)
            target = f"cl({args.left})" if args.rdfs else args.left
            out.write(f"entailment plan: {args.right} -> {target}\n")
            return entailment_plan(g1, g2, rdfs=args.rdfs)
        from .query import matching_plan

        query = _load_query(args.left)
        database = _load_graph(args.right)
        out.write(
            f"matching plan: body of {args.left} -> nf({args.right})\n"
        )
        return matching_plan(query, database)

    if budget is None:
        plan = _plan()
    else:
        from .robustness import BudgetExceeded, guarded

        try:
            with guarded(budget):
                plan = _plan()
        except BudgetExceeded as err:
            out.write(f"unknown ({err.reason} budget tripped: {err})\n")
            return 3
    out.write(plan.describe() + "\n")
    out.write("strategies: " + ", ".join(plan.strategies()) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-rdf",
        description="Foundations of Semantic Web Databases — operations "
        "on RDF graphs and tableau queries.",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="enable instrumentation and append a metrics/trace summary "
        "(as '#' comment lines) after the command output",
    )
    parser.add_argument(
        "--profile-json",
        metavar="PATH",
        help="write the full metrics snapshot and span list as JSON to "
        "PATH (implies instrumentation; add --profile for the "
        "human-readable summary too)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("closure", help="print cl(G) (or the ρdf closure)")
    p.add_argument("graph")
    p.add_argument("--rho", action="store_true", help="reflexivity-free closure")
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("core", help="print core(G)")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_core)

    p = sub.add_parser("nf", help="print the normal form nf(G)")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_nf)

    p = sub.add_parser("minimal", help="print a minimal representation")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_minimal)

    p = sub.add_parser("lean", help="decide leanness (exit 1 if not lean)")
    p.add_argument("graph")
    p.add_argument("--witness", action="store_true", help="show the retraction")
    p.set_defaults(fn=cmd_lean)

    p = sub.add_parser(
        "entails",
        help="G1 ⊨ G2? (exit 1 if not, 3 if the budget tripped)",
    )
    p.add_argument("premise_graph")
    p.add_argument("conclusion_graph")
    p.add_argument("--simple", action="store_true", help="simple semantics")
    _add_budget_flags(p)
    _add_trace_flag(p)
    p.set_defaults(fn=cmd_entails)

    p = sub.add_parser("equivalent", help="G1 ≡ G2? (exit 1 if not)")
    p.add_argument("graph_a")
    p.add_argument("graph_b")
    p.set_defaults(fn=cmd_equivalent)

    p = sub.add_parser("query", help="answer a CONSTRUCT/WHERE query")
    p.add_argument("query")
    p.add_argument("graph")
    p.add_argument("--semantics", choices=("union", "merge"), default="union")
    p.add_argument(
        "--cached",
        action="store_true",
        help="serve via TripleStore.query with the two-tier query cache",
    )
    _add_budget_flags(p)
    _add_trace_flag(p)
    p.set_defaults(fn=cmd_query)

    p = sub.add_parser("contains", help="q1 ⊑ q2? (exit 1 if not)")
    p.add_argument("query_a")
    p.add_argument("query_b")
    p.add_argument("--entailment", action="store_true", help="use ⊑m instead of ⊑p")
    p.set_defaults(fn=cmd_contains)

    p = sub.add_parser("path", help="evaluate a path expression")
    p.add_argument("expression")
    p.add_argument("graph")
    p.add_argument("--source", help="single-source mode: start node")
    p.add_argument("--rdfs", action="store_true", help="navigate the closure")
    p.set_defaults(fn=cmd_path)

    p = sub.add_parser(
        "load",
        help="bulk-load an N-Triples file (streaming, optionally parallel)",
        description="Streaming bulk ingest: chunk-parse FILE into "
        "dictionary-encoded sorted runs (repro.ingest), optionally in "
        "parallel worker processes, and report throughput.  --close "
        "additionally computes the RDFS closure with the partitioned "
        "kernel; --out writes the (closed) graph back out.",
    )
    p.add_argument("graph", help="N-Triples file, or - for stdin")
    p.add_argument(
        "--parallel",
        type=int,
        default=1,
        metavar="N",
        help="parse chunks across N worker processes (default 1)",
    )
    p.add_argument(
        "--chunk-lines",
        type=int,
        default=None,
        metavar="N",
        help="lines per parse chunk",
    )
    p.add_argument(
        "--tolerant",
        action="store_true",
        help="skip malformed lines instead of failing on the first",
    )
    p.add_argument(
        "--max-memory-mb",
        type=int,
        default=None,
        metavar="MB",
        help="spill pending runs / cold shards to temp files beyond "
        "this budget (default: 512; 0 = unbounded)",
    )
    p.add_argument(
        "--close",
        action="store_true",
        help="also compute the RDFS closure (partitioned kernel)",
    )
    p.add_argument(
        "--shards",
        type=int,
        default=4,
        metavar="K",
        help="with --close: number of closure partitions (default 4)",
    )
    p.add_argument(
        "--progress",
        action="store_true",
        help="emit rate-limited heartbeat lines to stderr while loading",
    )
    p.add_argument(
        "--progress-json",
        action="store_true",
        help="like --progress, but one JSON object per heartbeat line",
    )
    p.add_argument(
        "--store",
        metavar="DIR",
        help="persist the loaded graph into a durable store directory "
        "(WAL + checkpoint; create or append)",
    )
    p.add_argument("--out", metavar="PATH", help="write the result graph")
    _add_trace_flag(p)
    p.set_defaults(fn=cmd_load)

    p = sub.add_parser(
        "open",
        help="open a durable store directory and report its state",
        description="Open (and recover, if the last process crashed) a "
        "durable store directory: print the manifest generation, WAL "
        "and term-log sizes, per-graph triple counts, and the recovery "
        "counters (replayed batches, truncated torn-tail bytes).  "
        "--checkpoint compacts the WAL into fresh sorted segments "
        "before closing.",
    )
    p.add_argument("store", help="store directory (as given to load --store)")
    p.add_argument(
        "--checkpoint",
        action="store_true",
        help="compact: fold the WAL into a new segment generation",
    )
    p.set_defaults(fn=cmd_open)

    p = sub.add_parser(
        "dump",
        help="serialize a durable store's graphs as N-Triples",
        description="Open a durable store directory and write its "
        "contents as N-Triples to stdout (or --out): the default graph, "
        "a single named graph (--graph), or the dataset union.",
    )
    p.add_argument("store", help="store directory (as given to load --store)")
    p.add_argument(
        "--graph",
        metavar="NAME",
        help="dump one named graph (default: the union of all graphs)",
    )
    p.add_argument("--out", metavar="PATH", help="write to PATH, not stdout")
    p.set_defaults(fn=cmd_dump)

    p = sub.add_parser(
        "metrics",
        help="re-export a --profile-json snapshot (Prometheus text/JSON)",
        description="Convert a metrics snapshot written by "
        "--profile-json (or any registry snapshot JSON) into the "
        "Prometheus text exposition format, or pretty-printed JSON.",
    )
    p.add_argument("snapshot", help="snapshot JSON file, or - for stdin")
    p.add_argument(
        "--format",
        choices=("prom", "json"),
        default="prom",
        help="output format (default: prom)",
    )
    p.set_defaults(fn=cmd_metrics)

    p = sub.add_parser("stats", help="structural profile of a graph")
    p.add_argument("graph")
    p.add_argument("--lean-limit", type=int, default=40)
    p.set_defaults(fn=cmd_stats)

    p = sub.add_parser("dot", help="Graphviz DOT export")
    p.add_argument("graph")
    p.set_defaults(fn=cmd_dot)

    p = sub.add_parser(
        "explain",
        help="print the matching planner's plan for a decision",
        description="Planner introspection: 'explain entails G1 G2' "
        "shows the plan behind G1 ⊨ G2 (add --rdfs to plan against "
        "cl(G1)); 'explain query Q D' shows how Q's body decomposes "
        "against nf(D).",
    )
    p.add_argument("kind", choices=("entails", "query"))
    p.add_argument("left", help="premise graph, or the query file")
    p.add_argument("right", help="conclusion graph, or the database graph")
    p.add_argument(
        "--rdfs",
        action="store_true",
        help="entails only: plan against the closure cl(G1)",
    )
    _add_budget_flags(p)
    p.set_defaults(fn=cmd_explain)

    return parser


def _write_profile(registry, tracer, out) -> None:
    """The --profile summary, as N-Triples-safe '#' comment lines."""
    out.write("#\n# --- profile (repro.obs) ---\n")
    for line in registry.describe().splitlines():
        out.write(f"# {line}\n")
    for line in tracer.describe().splitlines():
        out.write(f"# {line}\n")


def main(argv: Optional[List[str]] = None, out=None) -> int:
    """Entry point; returns the process exit code."""
    out = out if out is not None else sys.stdout
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    try:
        if not args.profile and not args.profile_json and trace_out is None:
            return args.fn(args, out)
        from . import obs

        with obs.instrumentation() as (registry, tracer):
            code = args.fn(args, out)
        if args.profile:
            _write_profile(registry, tracer, out)
        if args.profile_json:
            import json

            payload = {
                "metrics": registry.snapshot(),
                "trace": tracer.snapshot(),
            }
            Path(args.profile_json).write_text(
                json.dumps(payload, indent=2) + "\n"
            )
        if trace_out is not None:
            obs.write_chrome_trace(tracer, trace_out)
        return code
    except FileNotFoundError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
