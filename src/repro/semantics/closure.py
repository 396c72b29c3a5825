"""Closures of RDF graphs (Definitions 2.7 and 3.5, Theorem 3.6).

Two closure notions coincide on every graph (Theorem 3.6.2):

* ``RDFS-cl(G)`` — the triples deducible from ``G`` by rules (2)–(13)
  (Definition 2.7).  :func:`rdfs_closure_by_rules` computes it literally
  with the rule engine; :func:`rdfs_closure` computes the same set with
  a staged algorithm (transitive closures + bulk rule emission) that is
  what the paper's ``O(|G|²)`` size bound suggests.
* ``cl(G)`` — the semantic closure of Definition 3.5, defined through
  Skolemization for non-ground graphs.  :func:`closure` implements that
  definition verbatim (Skolemize, close, un-Skolemize); the equality
  ``cl(G) = RDFS-cl(G)`` (via Lemma 3.4) is asserted by the test suite.

:class:`ClosureOracle` decides ``t ∈ cl(G)`` without materializing the
quadratic closure, following the ``O(|G| log |G|)`` membership result of
Theorem 3.6.4: each rule group reduces membership to a reachability
query over the sp/sc edge relations.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from itertools import groupby
from typing import Dict, List, Optional, Set, Tuple

from ..core.columns import (
    SortedRuns,
    gallop_left,
    merge_union_many,
    merge_union_sorted,
)
from ..core.graph import RDFGraph
from ..core.interning import (
    BNODE_BASE,
    DOM_ID,
    LITERAL_BASE,
    RANGE_ID,
    Row,
    SC_ID,
    SP_ID,
    TYPE_ID,
    TermDict,
    VOCAB_SIZE,
)
from ..core.terms import Term, Triple, URI
from ..core.vocabulary import DOM, RANGE, RDFS_VOCABULARY, SC, SP, TYPE
from ..obs import OBS, MetricsRegistry
from ..obs.progress import ProgressReporter, current_progress
from ..robustness.faultinject import FAULTS
from ..robustness.guard import current_guard
from .rules import apply_rules_to_fixpoint

__all__ = [
    "rdfs_closure",
    "rdfs_closure_arrays",
    "rdfs_closure_partitioned",
    "rdfs_closure_partitioned_rows",
    "rdfs_closure_by_rules",
    "closure",
    "ClosureOracle",
    "closure_delta",
    "KERNEL_DISPATCH",
]

#: Always-on per-process dispatch tallies (``repro stats`` reads these;
#: the obs registry gets the same counts when instrumentation is on).
KERNEL_DISPATCH: Dict[str, int] = {
    "arrays": 0,
    "partitioned": 0,
}


def rdfs_closure_by_rules(graph: RDFGraph) -> RDFGraph:
    """``RDFS-cl(G)`` computed by iterating rules (2)–(13) to fixpoint.

    Reference implementation (Definition 2.7); use :func:`rdfs_closure`
    for anything performance-sensitive.
    """
    closed, _trace = apply_rules_to_fixpoint(graph)
    return closed


def _transitive_pairs(edges: Set[Tuple[Term, Term]]) -> Set[Tuple[Term, Term]]:
    """All pairs (a, b) with a path a → ... → b of length ≥ 1."""
    successors: Dict[Term, Set[Term]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    reach: Set[Tuple[Term, Term]] = set()
    guard = current_guard()
    for start in successors:
        if guard is not None:
            guard.tick()  # one DFS from this start node
        seen: Set[Term] = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(successors.get(node, ()))
        reach.update((start, node) for node in seen)
    return reach


def _make_checkpoint(new):
    """Per-rule-group emission counter closure (no-op while obs is off)."""
    if OBS.enabled:
        _emitted = [0]
        _registry = OBS.registry

        def checkpoint(group: str) -> None:
            now = len(new)
            delta = now - _emitted[0]
            _emitted[0] = now
            if delta:
                _registry.inc(f"closure.emitted.{group}", delta)
    else:
        def checkpoint(group: str) -> None:
            return None
    return checkpoint


def _successor_sets(edges, guard) -> Dict[int, Set[int]]:
    """Per-source reachability sets of a pair relation (DFS per source).

    The int-space twin of :func:`_transitive_pairs`, kept in successor-
    set form so rule application can leapfrog over its *sorted keys*
    without flattening the whole quadratic pair relation.  A semi-naive
    merge-join doubling was tried here and measured ~15x slower on
    chains: composing delta with the full relation re-derives every
    path decomposition (Θ(n³) emissions for a Θ(n²) closure), while
    one DFS per source touches each reachable node exactly once.
    """
    successors: Dict[int, Set[int]] = {}
    for a, b in edges:
        successors.setdefault(a, set()).add(b)
    reach: Dict[int, Set[int]] = {}
    for start in successors:
        if guard is not None:
            guard.tick()  # one DFS from this start node
        seen: Set[int] = set()
        stack = list(successors[start])
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            nxt = successors.get(node)
            if nxt:
                stack.extend(nxt)
        reach[start] = seen
    return reach


def _reverse_reachable(edges, sources) -> Dict[int, List[int]]:
    """``{s: [c, ...]}`` for each *source* s: all c with c →* s.

    Reverse-DFS over the (input-sized) edge list, run only from the
    handful of dom/range axiom subjects rules (6)/(7) care about —
    cheaper than inverting the full transitive pair relation.
    """
    reverse: Dict[int, List[int]] = {}
    for a, b in edges:
        reverse.setdefault(b, []).append(a)
    out: Dict[int, List[int]] = {}
    for start in sources:
        if start in out:
            continue
        seen: Set[int] = set()
        stack = list(reverse.get(start, ()))
        while stack:
            node = stack.pop()
            if node in seen:
                continue
            seen.add(node)
            stack.extend(reverse.get(node, ()))
        out[start] = list(seen)
    return out


def _arrays_round(acc: SortedRuns, tallies: Dict[str, int], guard) -> List[Row]:
    """One staged emission of rules (2)–(13) over a sorted-run relation.

    Every rule group reads contiguous POS runs (the five rdfsV keywords
    are IDs 0–4, so their runs sit at the front of the predicate
    column), and rule
    application leapfrogs the sorted predicate runs against the sorted
    keys of the sp/sc reachability relations — a key-level merge-join
    in place of per-tuple dict probing.  Emits a raw batch (duplicates
    allowed); the caller deduplicates by sorted-merge difference
    against the accumulated run.
    """
    batch: List[Row] = []
    push = batch.append
    # Per-rule-group emission counters over the raw batch (duplicates
    # included — first-emitter attribution happens at dedup time).
    checkpoint = _make_checkpoint(batch)
    pos = acc.pos
    c1, c2 = pos.c1, pos.c2
    sp_lo, sp_hi = pos.range1(SP_ID)
    sc_lo, sc_hi = pos.range1(SC_ID)
    ty_lo, ty_hi = pos.range1(TYPE_ID)
    dom_lo, dom_hi = pos.range1(DOM_ID)
    rg_lo, rg_hi = pos.range1(RANGE_ID)
    groups = list(pos.groups())  # (predicate, lo, hi) runs, ascending
    probes = emits = 0

    # Rules (11)/(13) are instantiation-atomic, as in rules.py: with a
    # literal B, (B sp B) is ill-formed, so (A sp "v") yields neither
    # reflexive row.  Literal objects sort last in a POS run; cut there.
    sp_mid = gallop_left(c1, LITERAL_BASE, sp_lo, sp_hi)
    sc_mid = gallop_left(c1, LITERAL_BASE, sc_lo, sc_hi)

    # GROUP E: sp reflexivity — rules (8), (9), (10), (11).
    sp_reflexive: Set[int] = set(range(VOCAB_SIZE))
    sp_reflexive.update(k for k, _lo, _hi in groups)  # rule (8)
    sp_reflexive.update(c2[dom_lo:dom_hi])  # rule (10)
    sp_reflexive.update(c2[rg_lo:rg_hi])
    sp_reflexive.update(c2[sp_lo:sp_mid])  # rule (11)
    sp_reflexive.update(c1[sp_lo:sp_mid])
    for a in sp_reflexive:
        push((a, SP_ID, a))
    checkpoint("rule8_11_sp_reflexivity")

    # GROUP F: sc reflexivity — rules (12), (13).
    sc_reflexive: Set[int] = set()
    sc_reflexive.update(c1[dom_lo:dom_hi])  # rule (12)
    sc_reflexive.update(c1[rg_lo:rg_hi])
    sc_reflexive.update(c1[ty_lo:ty_hi])
    sc_reflexive.update(c2[sc_lo:sc_mid])  # rule (13)
    sc_reflexive.update(c1[sc_lo:sc_mid])
    for a in sc_reflexive:
        if a < LITERAL_BASE:
            push((a, SC_ID, a))
    checkpoint("rule12_13_sc_reflexivity")

    # The sp/sc reachability relations, as per-source successor sets
    # (DFS — linear in the output; see :func:`_successor_sets`).
    sp_edges = list(zip(c2[sp_lo:sp_hi], c1[sp_lo:sp_hi]))
    sc_edges = list(zip(c2[sc_lo:sc_hi], c1[sc_lo:sc_hi]))
    sp_succ = _successor_sets(sp_edges, guard)
    sc_succ = _successor_sets(sc_edges, guard)

    # GROUP B, rule (2): sp transitivity.
    for a, succ in sp_succ.items():
        for b in succ:
            push((a, SP_ID, b))
    checkpoint("rule2_sp_transitivity")

    # GROUP C, rule (4): sc transitivity.
    for a, succ in sc_succ.items():
        for b in succ:
            push((a, SC_ID, b))
    checkpoint("rule4_sc_transitivity")

    # GROUP B, rule (3): lift every triple along sp — leapfrog the
    # predicate runs against the sorted sp-reachability keys; each
    # match emits the whole run against the whole superproperty set.
    if sp_succ:
        sp_keys = sorted(sp_succ)
        i, n = 0, len(sp_keys)
        for p, lo, hi in groups:
            while i < n and sp_keys[i] < p:
                i += 1
            if i >= n:
                break
            probes += 1
            if sp_keys[i] != p:
                continue
            for b in sp_succ[p]:
                if b < BNODE_BASE:  # no blank predicates
                    for x in range(lo, hi):
                        push((c2[x], b, c1[x]))
                        emits += 1
            i += 1
    checkpoint("rule3_sp_lift")

    # GROUP D, rules (6)/(7): dom/range typing through sp (Marin's
    # fix).  Ordered BEFORE rule (5) so the type pairs derived here are
    # sc-lifted within the same round.  A literal class still types:
    # (X type "v") is well-formed.  Properties sp-below an axiom subject
    # come from a reverse DFS over the (input-sized) sp edge list; each
    # property's uses are one galloping range probe into the predicate
    # column.
    typed_pairs: List[Tuple[int, int]] = []  # (instance, class)
    if dom_lo != dom_hi or rg_lo != rg_hi:
        subjects = set(c2[dom_lo:dom_hi])
        subjects.update(c2[rg_lo:rg_hi])
        sp_sub = _reverse_reachable(sp_edges, subjects)
        for a_lo, a_hi, use_subject in (
            (dom_lo, dom_hi, True),
            (rg_lo, rg_hi, False),
        ):
            for klass, a in zip(c1[a_lo:a_hi], c2[a_lo:a_hi]):
                below = sp_sub.get(a)
                properties = [a] + below if below else (a,)
                for c in properties:
                    lo, hi = pos.range1(c)
                    probes += 1
                    if use_subject:
                        for x in range(lo, hi):
                            typed_pairs.append((c2[x], klass))
                    else:
                        for x in range(lo, hi):
                            target = c1[x]
                            if target < LITERAL_BASE:
                                typed_pairs.append((target, klass))
        for x, klass in typed_pairs:
            push((x, TYPE_ID, klass))
    checkpoint("rule6_7_dom_range")

    # GROUP D, rule (5): lift type along sc — a leapfrog merge-join of
    # the class-grouped type pairs (the accumulated TYPE run unioned
    # with the typings derived just above) against the sorted sc keys.
    if sc_succ:
        by_class = list(zip(c1[ty_lo:ty_hi], c2[ty_lo:ty_hi]))  # sorted
        if typed_pairs:
            by_class = merge_union_sorted(
                by_class, sorted(set((k, x) for x, k in typed_pairs))
            )
        sc_keys = sorted(sc_succ)
        i, m = 0, len(by_class)
        j, n = 0, len(sc_keys)
        while i < m and j < n:
            k = by_class[i][0]
            k2 = sc_keys[j]
            probes += 1
            if k < k2:
                i += 1
                while i < m and by_class[i][0] < k2:
                    i += 1
            elif k2 < k:
                j += 1
            else:
                i2 = i + 1
                while i2 < m and by_class[i2][0] == k:
                    i2 += 1
                supers = sc_succ[k]
                for x in range(i, i2):
                    xx = by_class[x][1]
                    for b in supers:
                        push((xx, TYPE_ID, b))
                emits += (i2 - i) * len(supers)
                i = i2
                j += 1
    checkpoint("rule5_sc_type_lift")

    if probes or emits:
        tallies["probes"] = tallies.get("probes", 0) + probes
        tallies["emits"] = tallies.get("emits", 0) + emits
    return batch


def rdfs_closure_arrays(graph: RDFGraph) -> RDFGraph:
    """``RDFS-cl(G)`` via the array-native sorted-run kernel.

    Interns the graph, keeps the accumulated closure as a
    :class:`~repro.core.columns.SortedRuns` relation, and runs the
    staged fixpoint with batch semantics: each round emits one raw
    batch through merge-joins over contiguous POS runs, deduplicates it
    by sorted-merge difference against the accumulated run (no
    per-tuple set probing), and merges the delta back in one pass.

    On input without reserved vocabulary in subject/object positions a
    single round is complete and the verification round is skipped:
    every rule group reads the sp/sc relations already transitively
    closed, and rules (6)/(7) run before rule (5), so their type rows
    are sc-lifted in the same round.

    Raises ``TypeError`` on non-RDF terms (variables).
    """
    terms = TermDict()
    rows_sorted = sorted(set(terms.encode_rows(graph.triples)))
    acc = SortedRuns(rows_sorted)
    tallies: Dict[str, int] = {}
    guard = current_guard()
    input_size = len(graph)
    single_round = not any(
        s < VOCAB_SIZE or o < VOCAB_SIZE for s, _p, o in rows_sorted
    )
    batch_total = delta_total = 0
    with OBS.span("closure.fixpoint", input=input_size) as span:
        rounds = 0
        while True:
            rounds += 1
            if FAULTS.enabled:
                FAULTS.hit("closure.round")
            with OBS.span("closure.round", round=rounds) as round_span:
                batch = _arrays_round(acc, tallies, guard)
                batch.sort()
                delta = acc.new_rows(batch)
                round_span.annotate(new=len(delta))
            batch_total += len(batch)
            delta_total += len(delta)
            if guard is not None:
                # One step per batch boundary plus one per surviving
                # delta row: budgets interrupt between batches, not
                # inside a merge.
                guard.tick(1 + len(delta))
            if not delta:
                break
            acc = acc.union_sorted(delta)
            if single_round:
                break  # the verification round is provably empty
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("closure.rounds", rounds)
            registry.inc("closure.derived_triples", len(acc) - input_size)
            span.annotate(rounds=rounds, output=len(acc))
    out = RDFGraph._from_trusted(terms.decode_rows(acc.rows()))
    if OBS.enabled:
        registry = OBS.registry
        registry.inc("interning.encode_calls", terms.encodes)
        registry.inc("interning.decode_calls", terms.decodes)
        registry.set_gauge("interning.closure_dict_size", len(terms))
        registry.inc("closure.kernel.arrays.batch_rows", batch_total)
        registry.inc("closure.kernel.arrays.delta_rows", delta_total)
        registry.inc("columns.mergejoin.probes", tallies.get("probes", 0))
        registry.inc("columns.mergejoin.emits", tallies.get("emits", 0))
    return out


# ----------------------------------------------------------------------
# Partitioned closure (ROADMAP item 3: the 10⁶-triple scale path)
# ----------------------------------------------------------------------

def _is_schema_row(p: int) -> bool:
    """Schema rows are the ones replicated to every shard.

    A row is *schema* iff its predicate is sp, sc, dom or range.  Every
    RDFS rule (2)–(13) has at most one non-schema premise: rules
    (2)/(4) and the reflexivity group join only schema rows, and rules
    (3)/(5)/(6)/(7) join one schema row against one arbitrary row.  So
    replicating schema to all shards and partitioning the rest by
    subject co-locates every rule's premises — no shard ever needs
    another shard's *data* rows, only its derived deltas.
    """
    return p < VOCAB_SIZE and p != TYPE_ID


class _Shard:
    """One partition's accumulated closure, spillable between rounds."""

    __slots__ = ("acc", "path", "n_rows", "inbox", "needs_round")

    def __init__(self, acc: SortedRuns):
        self.acc: Optional[SortedRuns] = acc
        self.path: Optional[str] = None
        self.n_rows = len(acc)
        self.inbox: List[List[Row]] = []
        self.needs_round = True

    def load(self) -> SortedRuns:
        if self.acc is None:
            with open(self.path, "rb") as f:
                self.acc = SortedRuns.fromfile(f, self.n_rows)
        return self.acc

    def spill(self, directory: str, index: int) -> None:
        if self.acc is None:
            return
        if self.path is None:
            self.path = os.path.join(directory, f"shard-{index:04d}.bin")
        with open(self.path, "wb") as f:
            self.acc.tofile(f)
        self.acc = None

    def resident_rows(self) -> int:
        return self.n_rows if self.acc is not None else 0

    def rows_iter(self):
        """Rows for the final k-way merge, streamed if spilled."""
        if self.acc is not None:
            return iter(self.acc.rows())
        from ..ingest.spill import SpilledRun

        return SpilledRun(self.path, self.n_rows).iter_rows()


def rdfs_closure_partitioned_rows(
    rows_sorted: List[Row],
    shards: int = 4,
    max_memory_mb: Optional[int] = None,
    tmp_dir: Optional[str] = None,
    tallies: Optional[Dict[str, int]] = None,
    progress: Optional[ProgressReporter] = None,
) -> SortedRuns:
    """``RDFS-cl`` of encoded rows by hash-partitioned fixpoint.

    *rows_sorted* is a sorted duplicate-free encoded row list over a
    vocabulary-seeded :class:`TermDict` (exactly what the bulk loader
    produces).  The relation is split into *shards* partitions — schema
    rows (sp/sc/dom/range predicates) replicated to all, data rows
    hashed by subject — and each shard runs the PR 6 staged round
    (:func:`_arrays_round`) over its own :class:`SortedRuns`.  Between
    rounds the shards exchange deltas: derived **schema** rows broadcast
    to every shard (new sp*/sc* frontier), and derived data rows whose
    subject hashes elsewhere — only rule (7) emits these — route to
    their home shard.  A shard re-enters the round loop whenever its
    accumulation grew; the global fixpoint is reached when no shard
    derives or receives anything new.

    On vocabulary-clean input (no reserved IDs in subject/object) one
    round per shard plus one exchange is complete: rules (6)/(7) emit
    type rows already lifted through the full (replicated) sc relation,
    so routed rows are inert at their home shard — the partitioned twin
    of the single-round argument in :func:`rdfs_closure_arrays`.

    With *max_memory_mb* set, shard accumulations are spilled to temp
    files between uses (:meth:`SortedRuns.tofile` flat-array format)
    whenever the resident estimate exceeds the bound, and the final
    union streams spilled shards back block-wise.

    *progress* (or the ambient reporter) gets one heartbeat per global
    round.  With instrumentation on, each shard additionally records
    into a private :class:`MetricsRegistry` that is merged into the
    global one under a ``closure.partitioned.shard.<i>.`` prefix at the
    end — the same loss-free snapshot-merge protocol the multi-worker
    loader uses across processes, exercised here across shards.
    """
    from ..ingest.spill import ROW_BYTES

    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if tallies is None:
        tallies = {}
    guard = current_guard()
    if progress is None:
        progress = current_progress()
    shard_regs: Optional[List[MetricsRegistry]] = (
        [MetricsRegistry() for _ in range(shards)] if OBS.enabled else None
    )
    max_bytes = None if max_memory_mb is None else max_memory_mb * (1 << 20)

    # One pass with the _is_schema_row test inlined (it is hot here).
    schema: List[Row] = []
    data_parts: List[List[Row]] = [[] for _ in range(shards)]
    for row in rows_sorted:
        p = row[1]
        if p < VOCAB_SIZE and p != TYPE_ID:
            schema.append(row)
        else:
            data_parts[row[0] % shards].append(row)
    # Schema and data rows interleave arbitrarily by subject, so each
    # part must be re-sorted after the replicate/partition split.
    shard_state = [
        _Shard(SortedRuns(sorted(schema + part))) for part in data_parts
    ]
    del data_parts

    single_round = not any(
        s < VOCAB_SIZE or o < VOCAB_SIZE for s, _p, o in rows_sorted
    )

    spill_dir: Optional[str] = None
    spill_events = 0
    exchanged = 0

    def enforce_budget() -> None:
        nonlocal spill_dir, spill_events
        if max_bytes is None:
            return
        while True:
            resident = sum(sh.resident_rows() for sh in shard_state)
            if resident * ROW_BYTES <= max_bytes:
                return
            # Spill the largest resident shard; stop when nothing is
            # left to spill (a single huge shard stays resident).
            loaded = [sh for sh in shard_state if sh.acc is not None]
            if len(loaded) <= 1:
                return
            victim = max(loaded, key=lambda sh: sh.n_rows)
            if spill_dir is None:
                spill_dir = tempfile.mkdtemp(
                    prefix="repro-shards-", dir=tmp_dir
                )
            victim.spill(spill_dir, shard_state.index(victim))
            spill_events += 1

    def route(delta: List[Row], origin: int) -> None:
        """Queue an origin shard's delta for the other shards."""
        nonlocal exchanged
        if shards == 1:
            return
        # Single pass, _is_schema_row inlined: schema rows broadcast,
        # foreign-subject data rows (rule 7's emissions) go home.
        broadcast: List[Row] = []
        routed: Dict[int, List[Row]] = {}
        for r in delta:
            p = r[1]
            if p < VOCAB_SIZE and p != TYPE_ID:
                broadcast.append(r)
            else:
                home = r[0] % shards
                if home != origin:
                    bucket = routed.get(home)
                    if bucket is None:
                        routed[home] = [r]
                    else:
                        bucket.append(r)
        if not broadcast and not routed:
            return
        for j, sh in enumerate(shard_state):
            if j == origin:
                continue
            extra = routed.get(j)
            if extra is None:
                # Inbox batches are read-only until merged, so every
                # shard may share the one broadcast list.
                batch = broadcast
            elif not broadcast:
                batch = extra
            else:
                batch = merge_union_sorted(broadcast, extra)
            if batch:
                sh.inbox.append(batch)
                exchanged += len(batch)

    rounds = 0
    try:
        with OBS.span(
            "closure.partitioned", shards=shards, input=len(rows_sorted)
        ) as span:
            while True:
                if not any(
                    sh.needs_round or sh.inbox for sh in shard_state
                ):
                    break
                rounds += 1
                if FAULTS.enabled:
                    FAULTS.hit("closure.round")
                for i, sh in enumerate(shard_state):
                    if sh.inbox:
                        incoming = merge_union_many(sh.inbox)
                        sh.inbox = []
                        acc = sh.load()
                        # One merge pass: union_sorted dedups, and the
                        # length tells us whether anything was new.
                        merged = acc.union_sorted(incoming)
                        if len(merged) != sh.n_rows:
                            sh.acc = merged
                            sh.n_rows = len(merged)
                            if not single_round:
                                sh.needs_round = True
                    if not sh.needs_round:
                        enforce_budget()
                        continue
                    acc = sh.load()
                    if shard_regs is not None:
                        with shard_regs[i].timer("round_ms"):
                            batch = _arrays_round(acc, tallies, guard)
                        shard_regs[i].inc("rounds")
                    else:
                        batch = _arrays_round(acc, tallies, guard)
                    batch.sort()
                    delta = acc.new_rows(batch)
                    if guard is not None:
                        guard.tick(1 + len(delta))
                    if delta:
                        sh.acc = acc.union_sorted(delta)
                        sh.n_rows = len(sh.acc)
                        route(delta, i)
                        if shard_regs is not None:
                            shard_regs[i].inc("derived_rows", len(delta))
                    else:
                        sh.needs_round = False
                    if single_round:
                        sh.needs_round = False
                    enforce_budget()
                if progress is not None:
                    progress.report(
                        "closure.partitioned",
                        round=rounds,
                        rows=sum(sh.n_rows for sh in shard_state),
                        exchanged=exchanged,
                        spills=spill_events,
                        shards=shards,
                    )
                if single_round and rounds >= 1:
                    # Drain the one exchange, then stop: routed rows
                    # are provably inert (see docstring).
                    for sh in shard_state:
                        if sh.inbox:
                            incoming = merge_union_many(sh.inbox)
                            sh.inbox = []
                            acc = sh.load()
                            merged = acc.union_sorted(incoming)
                            if len(merged) != sh.n_rows:
                                sh.acc = merged
                                sh.n_rows = len(merged)
                            enforce_budget()
                    break

            # Final union over all shard accumulations (schema rows and
            # broadcast copies dedup here).  With every shard resident,
            # concatenate + Timsort beats a pure-Python k-way heap
            # merge: the sort's galloping merge of the K pre-sorted
            # runs happens in C.  Spilled shards instead stream
            # block-wise through heapq.merge, never rematerializing.
            if all(sh.acc is not None for sh in shard_state):
                merged: List[Row] = []
                for sh in shard_state:
                    merged.extend(sh.acc.rows())
                merged.sort()
                out = [row for row, _group in groupby(merged)]
            else:
                out = [
                    row
                    for row, _group in groupby(
                        heapq.merge(*(sh.rows_iter() for sh in shard_state))
                    )
                ]
            span.annotate(rounds=rounds, output=len(out), spills=spill_events)
    finally:
        if spill_dir is not None:
            shutil.rmtree(spill_dir, ignore_errors=True)
    if progress is not None:
        progress.report(
            "closure.partitioned",
            force=True,
            round=rounds,
            rows=len(out),
            exchanged=exchanged,
            spills=spill_events,
            shards=shards,
        )
    if OBS.enabled:
        registry = OBS.registry
        registry.inc("closure.partitioned.rounds", rounds)
        registry.inc("closure.partitioned.exchanged_rows", exchanged)
        registry.inc("closure.partitioned.spilled_shards", spill_events)
        if shard_regs is not None:
            for i, reg in enumerate(shard_regs):
                registry.merge(
                    reg.snapshot(),
                    prefix=f"closure.partitioned.shard.{i}.",
                )
    return SortedRuns(out)


def rdfs_closure_partitioned(
    graph: RDFGraph,
    shards: int = 4,
    max_memory_mb: Optional[int] = None,
    tmp_dir: Optional[str] = None,
) -> RDFGraph:
    """``RDFS-cl(G)`` via the hash-partitioned sorted-run kernel.

    The graph-level wrapper over
    :func:`rdfs_closure_partitioned_rows`: encode, partition, run the
    per-shard fixpoint with delta exchange, decode the merged union.
    Produces exactly :func:`rdfs_closure_arrays`'s output for every
    shard count (parity-tested at 1, 2 and 7 shards); raises
    ``TypeError`` on non-RDF terms, as :func:`rdfs_closure_arrays` does.
    """
    terms = TermDict()
    rows_sorted = sorted(set(terms.encode_rows(graph.triples)))
    tallies: Dict[str, int] = {}
    acc = rdfs_closure_partitioned_rows(
        rows_sorted,
        shards=shards,
        max_memory_mb=max_memory_mb,
        tmp_dir=tmp_dir,
        tallies=tallies,
    )
    KERNEL_DISPATCH["partitioned"] += 1
    out = RDFGraph._from_trusted(terms.decode_rows(acc.rows()))
    if OBS.enabled:
        registry = OBS.registry
        registry.inc("closure.dispatch.partitioned")
        registry.inc("interning.encode_calls", terms.encodes)
        registry.inc("interning.decode_calls", terms.decodes)
        registry.inc("columns.mergejoin.probes", tallies.get("probes", 0))
        registry.inc("columns.mergejoin.emits", tallies.get("emits", 0))
    return out


def rdfs_closure(graph: RDFGraph) -> RDFGraph:
    """``RDFS-cl(G)`` via the sorted-run kernel (:func:`rdfs_closure_arrays`).

    Agrees with :func:`rdfs_closure_by_rules` on every graph (tested,
    including graphs that use reserved vocabulary in subject/object
    positions and literal objects); runs in time polynomial in ``|G|``
    with output size ``Θ(|G|²)`` in the worst case (Theorem 3.6.3).
    The ``closure.dispatch.arrays`` counter and the always-on
    :data:`KERNEL_DISPATCH` tally count the calls.
    """
    result = rdfs_closure_arrays(graph)
    KERNEL_DISPATCH["arrays"] += 1
    if OBS.enabled:
        OBS.registry.inc("closure.dispatch.arrays")
    return result


def closure(graph: RDFGraph) -> RDFGraph:
    """``cl(G)`` per Definition 3.5: Skolemize, close, un-Skolemize.

    For ground graphs this is directly the maximal equivalent ground
    graph (= ``RDFS-cl(G)``); otherwise ``cl(G) = (cl(G*))_*``.  By
    Lemma 3.4 the result equals ``RDFS-cl(G)``.

    A closure already attached to the graph is returned as is: a
    store's dataset snapshot arrives with the store's maintained
    closure (see :meth:`repro.store.TripleStore.dataset`).  Nothing is
    recorded here, so every other call computes ``cl(G)`` afresh.
    """
    closed = graph._cached_closure()
    if closed is not None:
        return closed
    if graph.is_ground():
        return rdfs_closure(graph)
    skolemized, inverse = graph.skolemize()
    closed = rdfs_closure(skolemized)
    return RDFGraph.unskolemize(closed, inverse)


def closure_delta(graph: RDFGraph, closed: Optional[RDFGraph] = None) -> RDFGraph:
    """The derived part ``cl(G) − G`` (useful for inspection and tests).

    Pass *closed* to reuse an already-computed (e.g. incrementally
    maintained) closure instead of recomputing it — the store's
    :meth:`~repro.store.TripleStore.closure_delta` does exactly that.
    """
    return (closure(graph) if closed is None else closed) - graph


class ClosureOracle:
    """Decides ``t ∈ cl(G)`` without materializing the closure.

    Preprocessing builds the sp/sc edge lists and per-predicate triple
    indexes (linear in ``|G|``); each membership query then runs a
    bounded number of reachability checks, in line with the
    ``O(|G| log |G|)`` bound of Theorem 3.6.4.

    The oracle answers relative to ``cl(G)`` with blank nodes treated as
    in the Skolemized closure — i.e. a queried blank node matches itself
    only, which is the correct reading of Definition 3.5.
    """

    def __init__(self, graph: RDFGraph):
        self._graph = graph
        self._sp_succ: Dict[Term, Set[Term]] = {}
        self._sc_succ: Dict[Term, Set[Term]] = {}
        for t in graph:
            if t.p == SP:
                self._sp_succ.setdefault(t.s, set()).add(t.o)
            elif t.p == SC:
                self._sc_succ.setdefault(t.s, set()).add(t.o)
        # Deep vocabulary nesting (reserved words in subject/object
        # positions) can make single-pass reachability insufficient;
        # detect it and fall back to the materialized closure, keeping
        # the fast path for the overwhelmingly common case.
        self._pathological = any(
            term in RDFS_VOCABULARY
            for t in graph
            for term in (t.s, t.o)
        )
        self._materialized: Optional[RDFGraph] = None

    # -- reachability helpers -------------------------------------------

    def _reaches(self, succ: Dict[Term, Set[Term]], a: Term, b: Term) -> bool:
        """True iff there is a path a → ... → b of length ≥ 1."""
        seen: Set[Term] = set()
        stack = list(succ.get(a, ()))
        while stack:
            node = stack.pop()
            if node == b:
                return True
            if node in seen:
                continue
            seen.add(node)
            stack.extend(succ.get(node, ()))
        return False

    def _sp_reaches(self, a: Term, b: Term) -> bool:
        return self._reaches(self._sp_succ, a, b)

    def _sc_reaches(self, a: Term, b: Term) -> bool:
        return self._reaches(self._sc_succ, a, b)

    def _sp_reflexive(self, a: Term) -> bool:
        """Does rule (8)/(9)/(10)/(11) put (a, sp, a) in the closure?"""
        if a in RDFS_VOCABULARY:
            return True
        g = self._graph
        if g.count(p=a):
            return True  # rule (8)
        if g.count(s=a, p=DOM) or g.count(s=a, p=RANGE):
            return True  # rule (10)
        if g.count(s=a, p=SP) or g.count(p=SP, o=a):
            return True  # rule (11)
        return False

    def _sc_reflexive(self, a: Term) -> bool:
        """Does rule (12)/(13) put (a, sc, a) in the closure?"""
        g = self._graph
        for p in (DOM, RANGE, TYPE):
            if g.count(p=p, o=a):
                return True  # rule (12)
        if g.count(s=a, p=SC) or g.count(p=SC, o=a):
            return True  # rule (13)
        return False

    def _predicates_below(self, prop: Term) -> Set[Term]:
        """``{prop} ∪ {c : c sp→* prop}`` — candidates for rules (3)/(6)/(7)."""
        out = {prop}
        # Reverse reachability over sp edges.
        reverse: Dict[Term, Set[Term]] = {}
        for a, succs in self._sp_succ.items():
            for b in succs:
                reverse.setdefault(b, set()).add(a)
        stack = list(reverse.get(prop, ()))
        while stack:
            node = stack.pop()
            if node in out:
                continue
            out.add(node)
            stack.extend(reverse.get(node, ()))
        return out

    # -- membership ------------------------------------------------------

    def __contains__(self, t: Triple) -> bool:
        return self.contains(t)

    def contains(self, t: Triple) -> bool:
        """``t ∈ cl(G)``?"""
        if not isinstance(t, Triple):
            t = Triple(*t)
        if t in self._graph:
            return True
        if self._pathological:
            if self._materialized is None:
                self._materialized = closure(self._graph)
            return t in self._materialized

        s, p, o = t
        if p == SP:
            if s == o:
                return self._sp_reflexive(s) or self._sp_reaches(s, s)
            return self._sp_reaches(s, o)
        if p == SC:
            if s == o:
                return self._sc_reflexive(s) or self._sc_reaches(s, s)
            return self._sc_reaches(s, o)
        if p == TYPE:
            return self._type_holds(s, o)
        if p in (DOM, RANGE):
            return False  # no rule derives new dom/range triples
        # Ordinary predicate: rule (3) — some (s, c, o) with c sp→* p.
        for c in self._predicates_below(p):
            if isinstance(c, URI) and c != p and self._graph.count(s=s, p=c, o=o):
                return True
        return False

    def _type_holds(self, x: Term, klass: Term) -> bool:
        """Is (x, type, klass) derivable?

        Sources: an explicit (x, type, c) with c sc→* klass (rule 5);
        a dom/range axiom (a, dom, c) with c sc→* klass and a use of a
        property sp-below a having x in the right position (rules 6/7
        then 5).
        """
        # Classes from which `klass` is sc-reachable (including itself).
        sources = {klass}
        reverse: Dict[Term, Set[Term]] = {}
        for a, succs in self._sc_succ.items():
            for b in succs:
                reverse.setdefault(b, set()).add(a)
        stack = list(reverse.get(klass, ()))
        while stack:
            node = stack.pop()
            if node in sources:
                continue
            sources.add(node)
            stack.extend(reverse.get(node, ()))

        for c in sources:
            if self._graph.count(s=x, p=TYPE, o=c):
                return True  # rule (5) chain from an explicit type triple
            # rule (6): (a, dom, c), some property use (x, b, ·), b sp* a.
            for axiom in self._graph.match(p=DOM, o=c):
                for b in self._predicates_below(axiom.s):
                    if isinstance(b, URI) and self._graph.count(s=x, p=b):
                        return True
            # rule (7): (a, range, c), some property use (·, b, x).
            for axiom in self._graph.match(p=RANGE, o=c):
                for b in self._predicates_below(axiom.s):
                    if isinstance(b, URI) and self._graph.count(p=b, o=x):
                        return True
        return False
