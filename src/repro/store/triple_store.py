"""A transactional RDF store with delta-aware write maintenance.

This is the "database" a downstream user of the paper's theory would
actually run: named graphs, ACID-ish transactions (all-or-nothing
batches with rollback), a materialized RDFS closure (the ``cl(G)`` of
Definition 3.5 / Theorem 3.6, a materialized view over the Datalog
rendition of rules (2)–(13)) maintained *incrementally* in both
directions, and query answering with the paper's semantics.

Write path:

* **Insertions** propagate through the semi-naive delta loop
  (:func:`~repro.datalog.engine.extend_fixpoint_into`).
* **Deletions** run delete–rederive (DRed) maintenance
  (:func:`~repro.datalog.engine.retract_fixpoint_into`): overdelete the
  removed facts' derivation cones, rederive what has alternate support.
  Both update one persistent fixpoint store in place; recomputation
  survives only as the lazy from-scratch fallback (and as the
  cross-check behind :attr:`TripleStore.validate_maintenance`).
* **Transactions** buffer the net dataset delta and run one batched
  maintenance step at commit (or at the first closure-dependent read
  inside the transaction) instead of one step per operation.
* A live :class:`~repro.store.dataset_cache.DatasetCache` keeps the
  union-of-graphs snapshot and its positional indexes current in place,
  so ``dataset()``/``describe()``/``entails()`` never rebuild an
  ``RDFGraph`` just to read.

The store works over the Skolemized image of its data (Section 3.1), so
the materialized closure is a plain ground fact set; blank nodes are
restored on the way out.

Since the dictionary-encoding PR the whole maintenance pipeline runs in
**ID space**: the store owns one shared
:class:`~repro.core.interning.TermDict`, triples are interned once at
insert, the dataset cache / delta buffers / fact stores all hold
``(int, int, int)`` rows, Skolemization is an O(1) ID remap, and the
Datalog program itself carries the pinned keyword IDs
(:func:`~repro.datalog.rdfs_program.rdfs_datalog_program_encoded`).
Terms are decoded only at the public read boundary (``closure()``,
``bnodes``, snapshots).
"""

from __future__ import annotations

import os
from collections.abc import Mapping
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from ..core.graph import RDFGraph
from ..core.homomorphism import find_map
from ..core.interning import BNODE_BASE, LITERAL_BASE, Row, TermDict
from ..core.terms import BNode, Literal, Term, Triple, URI
from ..datalog.engine import (
    FactStore,
    evaluate_program,
    extend_fixpoint_into,
    materialize_fixpoint,
    retract_fixpoint_into,
)
from ..datalog.rdfs_program import TRIPLE_RELATION, rdfs_datalog_program_encoded
from ..obs import OBS
from ..obs.metrics import MetricsRegistry
from ..query.tableau import Query
from ..robustness.faultinject import FAULTS
from .backend import (
    DEFAULT_GRAPH,
    BackendState,
    DurableOp,
    MemoryBackend,
    StorageBackend,
)
from .dataset_cache import DatasetCache

__all__ = ["TripleStore", "TransactionError", "MaintenanceStats", "DEFAULT_GRAPH"]

#: ``(kind byte in the term-pool log) -> term constructor`` for backend
#: state replay.
_TERM_CTOR = {"U": URI, "B": BNode, "L": Literal}

#: Environment switch: cross-check every incremental maintenance step
#: against a from-scratch fixpoint (slow; for tests and debugging).
_VALIDATE_ENV = os.environ.get("REPRO_STORE_VALIDATE", "") not in ("", "0")


class TransactionError(RuntimeError):
    """Raised on invalid transaction usage (nested begin, stray commit)."""


#: Legacy ``stats`` key → metric name in the store's private registry.
_STATS_KEYS = {
    "incremental_insert": "store.maintenance.incremental_insert",
    "incremental_delete": "store.maintenance.incremental_delete",
    "recomputed": "store.maintenance.recomputed",
}


class MaintenanceStats(Mapping):
    """Read-through dict view of the store's maintenance counters.

    Historically ``TripleStore.stats`` was a plain dict; the counters
    now live in the store's private :class:`MetricsRegistry` (and are
    mirrored into the process-global registry while instrumentation is
    on).  This view keeps the old dict contract — indexing, iteration,
    ``dict(stats)``, equality against dicts — reading the registry live.
    """

    __slots__ = ("_metrics",)

    def __init__(self, metrics: MetricsRegistry):
        self._metrics = metrics

    def __getitem__(self, key: str) -> int:
        return int(self._metrics.counter(_STATS_KEYS[key]))

    def __iter__(self) -> Iterator[str]:
        return iter(_STATS_KEYS)

    def __len__(self) -> int:
        return len(_STATS_KEYS)

    def __eq__(self, other) -> bool:
        if isinstance(other, (dict, Mapping)):
            return dict(self) == dict(other)
        return NotImplemented

    def __ne__(self, other) -> bool:
        eq = self.__eq__(other)
        return NotImplemented if eq is NotImplemented else not eq

    def __repr__(self) -> str:
        return repr(dict(self))


class TripleStore:
    """An updatable collection of named RDF graphs with RDFS reasoning.

    Example::

        store = TripleStore()
        store.add(triple("painter", SC, "artist"))
        with store.transaction():
            store.add(triple("frida", TYPE, "painter"))
        assert store.entails(triple("frida", TYPE, "artist"))

    Durability is delegated to a pluggable
    :class:`~repro.store.backend.StorageBackend`.  The default is the
    ephemeral :class:`~repro.store.backend.MemoryBackend` (identical to
    the historical behaviour); :meth:`TripleStore.open` attaches the
    WAL-backed :class:`~repro.store.durable.DurableBackend` so every
    commit point survives a crash::

        store = TripleStore.open("/data/my-store")
        store.add(triple("frida", TYPE, "painter"))   # durable
        store.close()
        store = TripleStore.open("/data/my-store")    # recovered
    """

    def __init__(self, backend: Optional[StorageBackend] = None):
        self._graphs: Dict[str, Set[Triple]] = {DEFAULT_GRAPH: set()}
        #: The store-wide term dictionary: every term interned exactly
        #: once, shared by the dataset cache and the closure machinery
        #: (skolem IDs and their inverse live here too).
        self._terms = TermDict()
        #: Live union of all named graphs (refcounted; indexed in place;
        #: keyed by encoded rows).
        self._dataset = DatasetCache(terms=self._terms)
        self._program = rdfs_datalog_program_encoded()
        #: Persistent materialized fixpoint, updated in place by the
        #: ``*_into`` engine calls (never rebuilt per write).
        self._closure_store: Optional[FactStore] = None
        #: Skolemized dataset rows the closure was built over, maintained
        #: alongside ``_closure_store`` (the EDB for DRed rederivation).
        self._base_store: Optional[FactStore] = None
        self._closure_graph: Optional[RDFGraph] = None
        self._normal_form: Optional[RDFGraph] = None
        self._in_transaction = False
        self._txn_log: List[Tuple[str, str, Triple]] = []  # (op, graph, triple)
        #: Net dataset delta not yet folded into the materialized closure
        #: (buffered during transactions, flushed at commit or at the
        #: first closure-dependent read), held as encoded rows.
        self._pending_adds: Set[Row] = set()
        self._pending_removes: Set[Row] = set()
        #: Cross-check incremental maintenance against a from-scratch
        #: fixpoint after every flush (also settable per instance).
        self.validate_maintenance = _VALIDATE_ENV
        #: Monotonic derived-state version: bumped whenever a flushed
        #: delta changes the materialized closure (or drops it).  Reads
        #: served from the query cache are guarded by it.
        self._version = 0
        #: Optional two-tier query cache (see ``enable_query_cache``).
        self._query_cache = None
        #: Per-store metrics: maintenance counters and flush timings.
        #: Always on (cold-path increments only); mirrored into the
        #: process-global registry while ``repro.obs`` is enabled.
        self.metrics = MetricsRegistry()
        #: Legacy view: how many closure maintenance operations ran as
        #: incremental insert deltas, incremental DRed deletions, or
        #: from-scratch recomputations (exposed for the benchmarks).
        self.stats = MaintenanceStats(self.metrics)
        #: The durability channel.  ``_durable`` is the one attribute
        #: the write paths test (same idiom as ``OBS``/``FAULTS``), so
        #: the in-memory store pays nothing for the split.
        self._backend = backend if backend is not None else MemoryBackend()
        self._durable = bool(self._backend.durable)
        #: Graph-level operations since the last durable commit point
        #: (auto-commit or transaction commit).
        self._durable_ops: List[DurableOp] = []
        self._backend.bind_counter(self._count)
        if self._durable:
            state = self._backend.load()
            if state is not None:
                self._replay_backend(state)
        #: Term-pool high-water marks at the last durable commit; the
        #: diff is each batch's ``new_terms``.
        self._term_marks = self._terms.pool_sizes()

    def _replay_backend(self, state: BackendState) -> None:
        """Rebuild the in-memory structures from recovered backend state.

        The term pools are replayed in their original interning order,
        so every recovered row decodes under exactly the IDs it was
        written with (vocabulary seeding happened in ``__init__``, as
        it did in the original process).
        """
        encode = self._terms.encode
        for kind, value in state.terms:
            encode(_TERM_CTOR[kind](value))
        for name, rows in state.graphs.items():
            target = self._graphs.setdefault(name, set())
            if not rows:
                continue
            triples = self._terms.decode_rows(rows)
            target.update(triples)
            dataset_add = self._dataset.add
            for t in triples:
                dataset_add(t)

    def _count(self, name: str, amount: int = 1) -> None:
        """Bump a cold-path counter here and (if on) in the global registry."""
        self.metrics.inc(name, amount)
        if OBS.enabled:
            OBS.registry.inc(name, amount)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def graph_names(self) -> List[str]:
        return sorted(self._graphs)

    @property
    def term_dict(self) -> TermDict:
        """The store's shared term dictionary (sizes and traffic via
        :meth:`~repro.core.interning.TermDict.stats`)."""
        return self._terms

    def graph(self, name: str = DEFAULT_GRAPH) -> RDFGraph:
        """A snapshot of one named graph."""
        return RDFGraph(self._graphs.get(name, ()))

    def dataset(self) -> RDFGraph:
        """The union of all named graphs (shared blank labels merge).

        Served from the live dataset cache: O(1) once the snapshot is
        built, rebuilt lazily at most once after a burst of writes.
        Sources that must keep their blanks apart should be loaded via
        :meth:`load_graph`, which renames on the way in.

        While the decoded closure is current, the snapshot carries it as
        its memoized ``cl(G)``, so ``semantics.entails(store.dataset(),
        G)`` costs one map search instead of a re-closure.
        """
        snapshot = self._dataset.snapshot()
        closed = self._closure_graph
        if closed is not None and not (
            self._pending_adds or self._pending_removes
        ):
            snapshot._adopt_closure(closed)
        return snapshot

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> Iterable[Triple]:
        """Dataset triples matching the fixed positions (None = wildcard).

        Reads the live cache's positional indexes directly — the same
        lookup primitive ``RDFGraph.match`` offers the matching planner,
        without materializing a graph snapshot.
        """
        return self._dataset.match(s, p, o)

    def count(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> int:
        """Number of dataset triples matching the fixed positions."""
        return self._dataset.count(s, p, o)

    def __len__(self) -> int:
        return sum(len(ts) for ts in self._graphs.values())

    def __contains__(self, t: Triple) -> bool:
        return t in self._dataset

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------

    def add(self, t: Triple, graph: str = DEFAULT_GRAPH) -> bool:
        """Insert one triple; returns True when it was new.

        Exception-safe: any failure (including KeyboardInterrupt)
        while the triple is being applied undoes it and restores a
        consistent pre-op state before re-raising.
        """
        if not isinstance(t, Triple):
            t = Triple(*t)
        if not t.is_valid_rdf():
            raise ValueError(f"not a well-formed RDF triple: {t}")
        triples = self._graphs.setdefault(graph, set())
        if t in triples:
            return False
        ops_len = len(self._durable_ops) if self._durable else 0
        try:
            triples.add(t)
            if self._in_transaction:
                self._txn_log.append(("add", graph, t))
            if FAULTS.enabled:
                FAULTS.hit("store.add.apply")
            row = self._dataset.add(t)
            if row is not None:
                self._buffer_change(row, added=True)
            if self._durable:
                self._durable_ops.append(
                    ("add", graph, self._terms.lookup_triple(t))
                )
                if not self._in_transaction:
                    self._persist_ops()
        except BaseException:
            triples.discard(t)
            if (
                self._in_transaction
                and self._txn_log
                and self._txn_log[-1] == ("add", graph, t)
            ):
                self._txn_log.pop()
            if self._durable:
                del self._durable_ops[ops_len:]
            self._recover()
            raise
        if not self._in_transaction:
            self._flush_delta()
            self._maybe_checkpoint()
        return True

    def add_all(self, triples: Iterable[Triple], graph: str = DEFAULT_GRAPH) -> int:
        """Insert a batch; returns the number of new triples.

        The whole batch is folded into the closure in one maintenance
        step, not one per triple — and it is **atomic**: a failure on
        any triple (an invalid one mid-iterable, an interrupt, an
        injected fault) undoes every triple already applied and
        restores the pre-batch state before re-raising.
        """
        new = 0
        target = self._graphs.setdefault(graph, set())
        applied: List[Triple] = []
        logged = 0
        ops_len = len(self._durable_ops) if self._durable else 0
        try:
            for t in triples:
                if not isinstance(t, Triple):
                    t = Triple(*t)
                if not t.is_valid_rdf():
                    raise ValueError(f"not a well-formed RDF triple: {t}")
                if t not in target:
                    target.add(t)
                    applied.append(t)
                    new += 1
                    if self._in_transaction:
                        self._txn_log.append(("add", graph, t))
                        logged += 1
                    if FAULTS.enabled:
                        FAULTS.hit("store.add_all.batch")
                    row = self._dataset.add(t)
                    if row is not None:
                        self._buffer_change(row, added=True)
                    if self._durable:
                        self._durable_ops.append(
                            ("add", graph, self._terms.lookup_triple(t))
                        )
            if self._durable and not self._in_transaction:
                self._persist_ops()
        except BaseException:
            for t in applied:
                target.discard(t)
            if logged:
                del self._txn_log[-logged:]
            if self._durable:
                del self._durable_ops[ops_len:]
            self._recover()
            raise
        if not self._in_transaction:
            self._flush_delta()
            self._maybe_checkpoint()
        return new

    def bulk_load(
        self,
        source,
        graph: str = DEFAULT_GRAPH,
        workers: int = 1,
        strict: bool = True,
        max_memory_mb: Optional[int] = None,
    ) -> int:
        """Stream an N-Triples file (or line iterable) into one graph.

        A convenience front on :func:`repro.ingest.load_ntriples`: the
        file is chunk-parsed (in parallel for ``workers > 1``), decoded
        once, and folded in as a single atomic :meth:`add_all` batch —
        one maintenance step for the whole file.  Returns the number of
        new triples.
        """
        from ..ingest import load_ntriples

        result = load_ntriples(
            source,
            workers=workers,
            strict=strict,
            max_memory_mb=max_memory_mb,
        )
        return self.add_all(result.graph(), graph=graph)

    def load_graph(self, source: RDFGraph, graph: str = DEFAULT_GRAPH) -> int:
        """Merge a source graph in (blank nodes renamed apart, §2.1)."""
        current = self.dataset()
        merged = current + source
        fresh_part = merged - current
        return self.add_all(fresh_part, graph=graph)

    def remove(self, t: Triple, graph: str = DEFAULT_GRAPH) -> bool:
        """Delete one triple; returns True when it was present.

        Maintains the materialized closure by delete–rederive instead of
        invalidating it.
        """
        if not isinstance(t, Triple):
            t = Triple(*t)
        triples = self._graphs.get(graph, set())
        if t not in triples:
            return False
        ops_len = len(self._durable_ops) if self._durable else 0
        try:
            triples.remove(t)
            if self._in_transaction:
                self._txn_log.append(("remove", graph, t))
            if FAULTS.enabled:
                FAULTS.hit("store.remove.apply")
            row = self._dataset.discard(t)
            if row is not None:
                self._buffer_change(row, added=False)
            if self._durable:
                self._durable_ops.append(
                    ("del", graph, self._terms.lookup_triple(t))
                )
                if not self._in_transaction:
                    self._persist_ops()
        except BaseException:
            triples.add(t)
            if (
                self._in_transaction
                and self._txn_log
                and self._txn_log[-1] == ("remove", graph, t)
            ):
                self._txn_log.pop()
            if self._durable:
                del self._durable_ops[ops_len:]
            self._recover()
            raise
        if not self._in_transaction:
            self._flush_delta()
            self._maybe_checkpoint()
        return True

    def clear(self, graph: Optional[str] = None) -> None:
        """Drop one named graph (or everything).

        Dropping a single graph retracts its triples through the same
        batched DRed path as :meth:`remove`; a full clear resets the
        store outright.
        """
        if self._in_transaction:
            raise TransactionError("clear() is not allowed inside a transaction")
        ops_len = len(self._durable_ops) if self._durable else 0
        if graph is None:
            old_graphs = self._graphs
            self._graphs = {DEFAULT_GRAPH: set()}
            # The shared term dictionary survives a clear: IDs are
            # append-only, and re-adding the same terms must reuse them.
            self._dataset = DatasetCache(terms=self._terms)
            self._pending_adds = set()
            self._pending_removes = set()
            if self._durable:
                self._durable_ops.append(("clear", "", None))
                try:
                    self._persist_ops()
                except BaseException:
                    self._graphs = old_graphs
                    del self._durable_ops[ops_len:]
                    self._recover()
                    raise
            self._invalidate_closure()
            return
        dropped = self._graphs.pop(graph, None)
        if dropped is None:
            return
        # An existing-but-empty graph still flows through: its *name*
        # was just removed, and that removal must be persisted too.
        try:
            for t in dropped:
                if FAULTS.enabled:
                    FAULTS.hit("store.clear.graph")
                row = self._dataset.discard(t)
                if row is not None:
                    self._buffer_change(row, added=False)
            if self._durable:
                # One graph-drop record, not |G| deletes: replay must
                # also forget the graph *name*, exactly like the pop
                # above.
                self._durable_ops.append(("drop", graph, None))
                self._persist_ops()
        except BaseException:
            self._graphs[graph] = dropped
            if self._durable:
                del self._durable_ops[ops_len:]
            self._recover()
            raise
        self._flush_delta()
        self._maybe_checkpoint()

    # ------------------------------------------------------------------
    # Transactions
    # ------------------------------------------------------------------

    def begin(self) -> None:
        if self._in_transaction:
            raise TransactionError("transaction already in progress")
        self._in_transaction = True
        self._txn_log = []

    def commit(self) -> None:
        """Close the transaction and fold its delta into the closure.

        Apply-or-rollback atomic: the transaction's writes are already
        in the graphs/dataset (applied), so once the transaction state
        is closed the commit cannot half-apply — a failure during the
        maintenance flush drops only the *derived* closure (recomputed
        lazily from scratch); the committed data survives intact.

        On a durable backend the whole transaction is one WAL batch,
        written and fsynced *before* the transaction state closes: if
        the backend cannot commit it (I/O failure, injected fault), the
        on-disk tail is repaired, the transaction is rolled back in
        memory, and the error propagates — all-or-nothing on disk and
        in memory alike.
        """
        if not self._in_transaction:
            raise TransactionError("no transaction in progress")
        if self._durable:
            try:
                self._persist_ops()
            except BaseException:
                self.rollback()
                raise
        self._in_transaction = False
        self._txn_log = []
        if FAULTS.enabled:
            FAULTS.hit("store.commit")
        self._flush_delta()
        self._maybe_checkpoint()

    def rollback(self) -> None:
        if not self._in_transaction:
            raise TransactionError("no transaction in progress")
        if self._durable:
            # Nothing in this transaction reached the backend (batches
            # are written only at commit), so undoing is memory-only.
            self._durable_ops = []
        entries = list(reversed(self._txn_log))
        self._in_transaction = False
        self._txn_log = []
        try:
            for op, graph, t in entries:
                if op == "add":
                    self._graphs.get(graph, set()).discard(t)
                    row = self._dataset.discard(t)
                    if row is not None:
                        self._buffer_change(row, added=False)
                else:
                    self._graphs.setdefault(graph, set()).add(t)
                    row = self._dataset.add(t)
                    if row is not None:
                        self._buffer_change(row, added=True)
        except BaseException:
            # Finish the graph-level undo (set ops are idempotent, so
            # replaying the whole reversed log is safe no matter where
            # the loop died), then rebuild the derived state from it.
            for op, graph, t in entries:
                if op == "add":
                    self._graphs.get(graph, set()).discard(t)
                else:
                    self._graphs.setdefault(graph, set()).add(t)
            self._recover()
            raise
        # When nothing inside the transaction forced a flush, the
        # inverse operations cancel the buffered delta exactly and the
        # materialized closure is untouched; otherwise the residue is
        # folded back in lazily (or now, since we are outside a txn).
        self._flush_delta()

    def transaction(self) -> "_Transaction":
        """Context manager: commits on success, rolls back on exception."""
        return _Transaction(self)

    # ------------------------------------------------------------------
    # Closure maintenance
    # ------------------------------------------------------------------

    def _persist_ops(self) -> None:
        """Send the buffered graph operations to the durable backend.

        One atomic backend batch per commit point: the term-pool
        records interned since the last batch plus the ordered ops.
        On success the buffer is consumed and the term marks advance;
        on failure both are left for the caller's exception handler
        (the write paths drop their own ops, :meth:`commit` rolls the
        transaction back).
        """
        new_terms = self._terms.pool_records_since(self._term_marks)
        if not self._durable_ops and not new_terms:
            return
        self._backend.commit_batch(new_terms, self._durable_ops)
        self._durable_ops = []
        self._term_marks = self._terms.pool_sizes()

    def _maybe_checkpoint(self) -> None:
        """Fold the WAL into segments when the backend asks for it."""
        if (
            self._durable
            and not self._in_transaction
            and self._backend.should_checkpoint()
        ):
            self.checkpoint()

    def _buffer_change(self, row: Row, added: bool) -> None:
        """Record a net dataset-level change awaiting closure maintenance."""
        if added:
            if row in self._pending_removes:
                self._pending_removes.discard(row)
            else:
                self._pending_adds.add(row)
        else:
            if row in self._pending_adds:
                self._pending_adds.discard(row)
            else:
                self._pending_removes.add(row)

    def _flush_delta(self) -> None:
        """Fold the buffered dataset delta into the materialized closure.

        One :func:`retract_fixpoint_into` for the net removals, one
        :func:`extend_fixpoint_into` for the net insertions — however
        many operations produced the delta, both updating the persistent
        fixpoint store in place.  No-op while nothing is buffered or the
        closure has never been materialized (it stays lazy).
        """
        if not self._pending_adds and not self._pending_removes:
            return
        adds, removes = self._pending_adds, self._pending_removes
        self._pending_adds, self._pending_removes = set(), set()
        if self._closure_store is None:
            # Nothing materialized: the delta is subsumed by the next
            # lazy from-scratch computation.  Without a closure delta to
            # test overlap against, cached query state is flushed
            # conservatively.
            self._closure_graph = None
            self._normal_form = None
            self._version += 1
            if self._query_cache is not None:
                self._query_cache.invalidate_all()
            return
        changed = False
        delta_rows: Set[Row] = set()
        sk = self._terms.skolemize_row
        timer = self.metrics.timer("store.flush_ms")
        try:
            if FAULTS.enabled:
                FAULTS.hit("store.flush.begin")
            with timer, OBS.span(
                "store.flush", adds=len(adds), removes=len(removes)
            ):
                if removes:
                    removed_rows = {sk(row) for row in removes}
                    for row in removed_rows:
                        self._base_store.discard(TRIPLE_RELATION, row)
                    if FAULTS.enabled:
                        FAULTS.hit("store.flush.retract")
                    gone = retract_fixpoint_into(
                        self._program,
                        self._closure_store,
                        self._base_store,
                        [(TRIPLE_RELATION, row) for row in removed_rows],
                    )
                    if gone:
                        changed = True
                        delta_rows.update(gone.get(TRIPLE_RELATION, ()))
                    self._count("store.maintenance.incremental_delete")
                if adds:
                    added_rows = {sk(row) for row in adds}
                    for row in added_rows:
                        self._base_store.add(TRIPLE_RELATION, row)
                    if FAULTS.enabled:
                        FAULTS.hit("store.flush.extend")
                    grown = extend_fixpoint_into(
                        self._program,
                        self._closure_store,
                        [(TRIPLE_RELATION, row) for row in added_rows],
                    )
                    if grown:
                        changed = True
                        delta_rows.update(grown.get(TRIPLE_RELATION, ()))
                    self._count("store.maintenance.incremental_insert")
        except BaseException:
            # A failure mid-DRed/extend (injected fault, budget trip,
            # interrupt) leaves the fixpoint store and its EDB half
            # updated.  The data itself — graphs and dataset cache — is
            # already consistent, so recovery just drops the derived
            # state; the next closure-dependent read rebuilds it from
            # scratch.
            self._recover_derived()
            raise
        self.metrics.set_gauge("store.term_dict.size", len(self._terms))
        if OBS.enabled:
            if timer.elapsed_ms is not None:
                OBS.registry.observe("store.flush_ms", timer.elapsed_ms)
            OBS.registry.set_gauge("store.term_dict.size", len(self._terms))
        if changed:
            # The closure delta is non-empty: derived caches are stale.
            self._closure_graph = None
            self._normal_form = None
            self._version += 1
            self._notify_query_cache(delta_rows)
        if self.validate_maintenance:
            self._assert_maintenance_agrees()

    def _assert_maintenance_agrees(self) -> None:
        """Debug cross-check: incremental result == from-scratch fixpoint."""
        maintained = frozenset(self._closure_store.rows(TRIPLE_RELATION))
        reference = evaluate_program(
            self._program,
            [
                (TRIPLE_RELATION, row)
                for row in self._base_store.rows(TRIPLE_RELATION)
            ],
        ).get(TRIPLE_RELATION, frozenset())
        assert maintained == reference, (
            "incremental closure maintenance diverged from the "
            "from-scratch fixpoint "
            f"(missing={sorted(map(str, reference - maintained))[:5]}, "
            f"extra={sorted(map(str, maintained - reference))[:5]})"
        )

    def _invalidate_closure(self) -> None:
        self._closure_store = None
        self._base_store = None
        self._closure_graph = None
        self._normal_form = None
        self._version += 1
        if self._query_cache is not None:
            self._query_cache.invalidate_all()

    def _notify_query_cache(self, delta_rows: Set[Row]) -> None:
        """Route one flushed delta's net closure-row changes to the cache.

        The selective (pattern-overlap) path is exactly sound only for
        ground datasets, where ``nf = cl`` — a ground graph is its own
        core, so a cached valuation set can change only via a closure
        row matching one of the entry's body patterns.  Blank nodes let
        core folding propagate a delta across predicates, so any blank
        in the dataset (or a skolem/blank ID in the delta, belt and
        braces) falls back to a full flush.
        """
        cache = self._query_cache
        if cache is None:
            return
        unsk = self._terms.unskolemize_id
        ground = not self._dataset.has_bnodes() and all(
            not (BNODE_BASE <= i < LITERAL_BASE) and unsk(i) == i
            for row in delta_rows
            for i in row
        )
        if ground:
            cache.invalidate_delta(delta_rows, self._terms.lookup, self._version)
        else:
            cache.invalidate_all()

    # ------------------------------------------------------------------
    # Failure recovery
    # ------------------------------------------------------------------

    def _recover_derived(self) -> None:
        """Drop all derived state after a failed maintenance step.

        The named graphs and dataset cache are authoritative and
        untouched by maintenance, so consistency is restored by
        throwing away the (possibly half-updated) materialized closure
        and buffered delta; the next closure-dependent read recomputes
        from scratch.
        """
        self._pending_adds = set()
        self._pending_removes = set()
        self._invalidate_closure()
        self._count("store.recovered_ops")

    def _recover(self) -> None:
        """Rebuild every derived structure from the named graphs.

        Called after a failure in the *apply* phase of a write, once the
        caller has restored ``_graphs`` to the pre-op triples: the
        dataset cache may have been mid-mutation, so it is rebuilt from
        scratch (reproducing refcounts and indexes exactly), and the
        materialized closure is dropped like :meth:`_recover_derived`.
        """
        dataset = DatasetCache(terms=self._terms)
        for triples in self._graphs.values():
            for t in triples:
                dataset.add(t)
        self._dataset = dataset
        self._recover_derived()

    def _materialized_closure_facts(self) -> Set[Tuple]:
        """The maintained closure's row set (flushing any buffered delta).

        Returns the live row set of the persistent fixpoint store — a
        read-only view for membership tests and iteration, never copied.
        """
        self._flush_delta()
        if self._closure_store is None:
            if OBS.enabled:
                OBS.registry.inc("store.closure_cache.miss")
            try:
                with OBS.span("store.materialize", triples=len(self)):
                    sk = self._terms.skolemize_row
                    base_rows = {sk(row) for row in self._dataset.rows()}
                    facts = [(TRIPLE_RELATION, row) for row in base_rows]
                    self._closure_store = materialize_fixpoint(
                        self._program, facts
                    )
                if FAULTS.enabled:
                    # Window between the fixpoint store and its EDB
                    # being installed: exactly the inconsistency
                    # recovery must repair.
                    FAULTS.hit("store.materialize")
                base = FactStore()
                for row in base_rows:
                    base.add(TRIPLE_RELATION, row)
                self._base_store = base
            except BaseException:
                self._recover_derived()
                raise
            self._count("store.maintenance.recomputed")
            self.metrics.set_gauge("store.term_dict.size", len(self._terms))
            if OBS.enabled:
                OBS.registry.set_gauge(
                    "store.term_dict.size", len(self._terms)
                )
        elif OBS.enabled:
            OBS.registry.inc("store.closure_cache.hit")
        return self._closure_store.rows(TRIPLE_RELATION)

    # ------------------------------------------------------------------
    # Reasoning
    # ------------------------------------------------------------------

    def closure(self) -> RDFGraph:
        """The materialized ``cl(dataset)`` (maintained incrementally)."""
        if self._closure_graph is not None and not (
            self._pending_adds or self._pending_removes
        ):
            if OBS.enabled:
                OBS.registry.inc("store.closure_cache.hit")
            return self._closure_graph
        facts = self._materialized_closure_facts()
        if self._closure_graph is not None:
            return self._closure_graph  # flush left the closure unchanged
        # Decode boundary: un-Skolemize in ID space (an O(1) remap per
        # position), drop rows the ``(·)_*`` step makes ill-formed
        # (literal subjects, non-URI predicates — pure range checks),
        # and only then materialize terms.
        unsk = self._terms.unskolemize_id
        dec = self._terms.decode_triple
        ground = []
        for s, p, o in facts:
            s, p, o = unsk(s), unsk(p), unsk(o)
            if s >= LITERAL_BASE or p >= BNODE_BASE:
                continue
            ground.append(dec((s, p, o)))
        self._closure_graph = RDFGraph(ground)
        return self._closure_graph

    def closure_delta(self) -> RDFGraph:
        """``cl(dataset) − dataset``: the derived-only triples."""
        from ..semantics.closure import closure_delta

        return closure_delta(self.dataset(), closed=self.closure())

    def entails(self, t: Triple) -> bool:
        """Does the store's dataset RDFS-entail the (possibly blank) triple?

        Theorem 2.8 against the maintained closure: a ground triple is a
        row lookup, a blank one a map ``{t} → cl(dataset)``.
        """
        if not isinstance(t, Triple):
            t = Triple(*t)
        if not t.bnodes():
            facts = self._materialized_closure_facts()
            row = self._terms.lookup_triple(t)
            return row is not None and row in facts
        return find_map(RDFGraph([t]), self.closure()) is not None

    def normal_form(self) -> RDFGraph:
        """``nf(dataset)``, cached; the matching target for queries.

        Derived as the core of the (incrementally maintained) closure.
        A write whose maintenance step leaves the closure unchanged —
        an empty closure delta — keeps the cached normal form too, so
        redundant writes cost no core computation.
        """
        self._flush_delta()
        if self._normal_form is None:
            from ..minimize.core_graph import core

            if OBS.enabled:
                OBS.registry.inc("store.nf_cache.miss")
            with OBS.span("store.normal_form"):
                self._normal_form = core(self.closure())
        elif OBS.enabled:
            OBS.registry.inc("store.nf_cache.hit")
        return self._normal_form

    @property
    def version(self) -> int:
        """Monotonic derived-state version (bumps on effective deltas)."""
        return self._version

    @property
    def query_cache(self):
        """The active :class:`~repro.query.cache.QueryCache`, or None."""
        return self._query_cache

    def enable_query_cache(
        self,
        max_bytes: int = 32 << 20,
        max_entries: int = 256,
        max_plans: int = 128,
        answer_cache: bool = True,
    ):
        """Attach the two-tier query cache to :meth:`query`.

        Off by default — enabling it changes no answer (cached serving
        is byte-identical, property-tested), only the work done per
        request.  Counters land in ``self.metrics`` (and the obs
        registry when instrumentation is on) as ``query.cache.*``.
        ``answer_cache=False`` keeps only the prepared-plan tier.
        """
        from ..query.cache import QueryCache

        self._query_cache = QueryCache(
            max_bytes=max_bytes,
            max_entries=max_entries,
            max_plans=max_plans,
            answer_cache=answer_cache,
            count=self._count,
        )
        return self._query_cache

    def disable_query_cache(self) -> None:
        self._query_cache = None

    def query(self, q: Query, semantics: str = "union") -> RDFGraph:
        """Answer a tableau query against the dataset (paper semantics).

        Premise-free queries reuse the cached normal form — and, when
        :meth:`enable_query_cache` has been called, the two-tier query
        cache; queries with premises must renormalize against ``D + P``
        per Definition 4.3 (their target is not the store's normal
        form, so they always bypass the cache).
        """
        from ..query.answers import answers

        if q.premise:
            return answers(q, self.dataset(), semantics=semantics, target=None)
        target = self.normal_form()
        if self._query_cache is not None:
            return self._query_cache.answer(q, semantics, target, self._version)
        return answers(q, self.dataset(), semantics=semantics, target=target)

    def describe(self, node: Term) -> RDFGraph:
        """The concise bounded description of *node*.

        All triples with *node* as subject, plus, recursively, the
        descriptions of blank nodes appearing as objects — the standard
        "tell me about X" store operation, blank-closure included so
        the result is a self-contained graph.  Reads the live dataset
        cache; no snapshot is rebuilt.
        """
        out: Set[Triple] = set()
        frontier = [node]
        seen: Set[Term] = set()
        while frontier:
            current = frontier.pop()
            if current in seen:
                continue
            seen.add(current)
            for t in self._dataset.match(s=current):
                out.add(t)
                if isinstance(t.o, BNode):
                    frontier.append(t.o)
        return RDFGraph(out)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------

    @classmethod
    def open(cls, path, **backend_opts) -> "TripleStore":
        """Open (or create) a durable store directory.

        Attaches a :class:`~repro.store.durable.DurableBackend` at
        *path* and recovers its committed state: replayed term pools
        (IDs bit-identical to the writing process), checkpoint
        segments, and every WAL batch whose commit record survived.
        Keyword options are forwarded to the backend
        (``wal_checkpoint_bytes``, ``fsync``).
        """
        from .durable import DurableBackend

        return cls(backend=DurableBackend(path, **backend_opts))

    @property
    def backend(self) -> StorageBackend:
        """The attached storage backend (memory by default)."""
        return self._backend

    @property
    def durable(self) -> bool:
        """True when writes are persisted through a durable backend."""
        return self._durable

    def checkpoint(self) -> None:
        """Compact the durable log into segment files (no-op in memory).

        Writes every graph's committed rows as a new segment
        generation, swaps the manifest atomically, and starts a fresh
        WAL.  Runs automatically when the WAL outgrows the backend's
        threshold; callable explicitly before :meth:`close` to make
        reopening cheapest.
        """
        if not self._durable:
            return
        if self._in_transaction:
            raise TransactionError(
                "checkpoint() is not allowed inside a transaction"
            )
        lookup = self._terms.lookup_triple
        graphs_rows = {
            name: sorted(lookup(t) for t in triples)
            for name, triples in self._graphs.items()
        }
        self._backend.checkpoint(graphs_rows)

    def close(self) -> None:
        """Release the backend's file handles.

        Committed data is already durable (every commit point is
        fsynced), so closing without a final :meth:`checkpoint` loses
        nothing — reopening just replays more WAL.
        """
        self._backend.close()


class _Transaction:
    def __init__(self, store: TripleStore):
        self._store = store

    def __enter__(self) -> TripleStore:
        self._store.begin()
        return self._store

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        if exc_type is None:
            self._store.commit()
        else:
            self._store.rollback()
        return False
