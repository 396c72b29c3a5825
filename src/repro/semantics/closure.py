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

from typing import Dict, List, Optional, Set, Tuple

from ..core.columns import SortedRuns, gallop_left, merge_union_sorted
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
from ..obs import OBS
from ..obs.progress import ProgressReporter, current_progress
from ..robustness.faultinject import FAULTS
from ..robustness.guard import current_guard
from .rules import apply_rules_to_fixpoint

__all__ = [
    "rdfs_closure",
    "rdfs_closure_arrays",
    "rdfs_closure_rows",
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


def rdfs_closure_rows(
    rows_sorted: List[Row],
    progress: Optional[ProgressReporter] = None,
) -> SortedRuns:
    """``RDFS-cl`` of encoded rows via the array-native sorted-run kernel.

    *rows_sorted* is a sorted duplicate-free row list over a
    vocabulary-seeded :class:`TermDict` (the five rdfsV keywords are
    IDs 0–4) — exactly what the bulk loader produces, so ``repro load
    --close`` closes its runs here without a boxed graph.  The
    accumulated closure is a :class:`~repro.core.columns.SortedRuns`
    relation, and the staged fixpoint runs with batch semantics: each
    round emits one raw batch through merge-joins over contiguous POS
    runs, deduplicates it by sorted-merge difference against the
    accumulated run (no per-tuple set probing), and merges the delta
    back in one pass.

    On input without reserved vocabulary in subject/object positions a
    single round is complete and the verification round is skipped:
    every rule group reads the sp/sc relations already transitively
    closed, and rules (6)/(7) run before rule (5), so their type rows
    are sc-lifted in the same round.

    *progress* (or the ambient reporter) gets one ``closure`` heartbeat
    per round.
    """
    acc = SortedRuns(rows_sorted)
    tallies: Dict[str, int] = {}
    guard = current_guard()
    if progress is None:
        progress = current_progress()
    input_size = len(rows_sorted)
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
            if progress is not None:
                progress.report("closure", round=rounds, rows=len(acc))
            if single_round:
                break  # the verification round is provably empty
        if OBS.enabled:
            registry = OBS.registry
            registry.inc("closure.rounds", rounds)
            registry.inc("closure.derived_triples", len(acc) - input_size)
            registry.inc("closure.kernel.arrays.batch_rows", batch_total)
            registry.inc("closure.kernel.arrays.delta_rows", delta_total)
            registry.inc("columns.mergejoin.probes", tallies.get("probes", 0))
            registry.inc("columns.mergejoin.emits", tallies.get("emits", 0))
            span.annotate(rounds=rounds, output=len(acc))
    if progress is not None:
        progress.report("closure", force=True, round=rounds, rows=len(acc))
    return acc


def rdfs_closure_arrays(graph: RDFGraph) -> RDFGraph:
    """``RDFS-cl(G)`` via :func:`rdfs_closure_rows`.

    Interns the graph into a fresh vocabulary-seeded
    :class:`TermDict`, closes the encoded rows, and decodes the result.
    Raises ``TypeError`` on non-RDF terms (variables).
    """
    terms = TermDict()
    acc = rdfs_closure_rows(sorted(set(terms.encode_rows(graph.triples))))
    out = RDFGraph._from_trusted(terms.decode_rows(acc.rows()))
    if OBS.enabled:
        registry = OBS.registry
        registry.inc("interning.encode_calls", terms.encodes)
        registry.inc("interning.decode_calls", terms.decodes)
        registry.set_gauge("interning.closure_dict_size", len(terms))
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
