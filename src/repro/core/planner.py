"""The matching planner: strategy selection for homomorphism search.

Every NP-hard decision procedure in the library (entailment, leanness,
cores, query matching, containment) funnels through one search problem:
enumerate assignments of a pattern's free terms (blank nodes, query
variables) into a target graph such that every instantiated pattern
triple is a triple of the target.  This module plans and executes that
search:

1. **Component decomposition** — the pattern is split into connected
   components on shared free terms; components are solved independently
   and their solution sets combined as a (lazily memoized) product, so
   one component's candidates are never re-enumerated per candidate of
   another.
2. **Candidate domains** — each free term gets a candidate domain
   computed from the target's positional indexes, and the domains are
   narrowed to arc consistency before any search happens.  On acyclic
   components this *is* Yannakakis' full reducer (Section 2.4): one
   bottom-up and one top-down semijoin pass over the component's join
   tree, executed directly on the graph indexes.
3. **Strategy routing** — blank-acyclic components (the paper's
   tractable case, Section 2.4) are enumerated backtrack-free along a
   static join-tree order (``semijoin``); cyclic components fall back to
   fail-first backtracking with forward checking and incrementally
   maintained candidate counts (``backtrack``).
4. **Plan introspection** — :func:`explain` returns the
   :class:`MatchPlan` the solver would execute, so benchmarks and tests
   can report which strategy actually ran.

The solver additionally supports an *excluded triple*: no pattern triple
may be mapped onto it.  This turns the leanness/core search ``μ(G) ⊆
G − {t}`` into a filter instead of a graph rebuild, letting
:func:`proper_endomorphism_assignment` reuse one set of candidate
domains across all up-to-``|G|`` excluded triples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..obs import OBS
from ..robustness.guard import current_guard
from .graph import RDFGraph
from .interning import EncodedGraph, Row
from .terms import BNode, Term, Triple, Variable, sort_key

__all__ = [
    "MatchPlan",
    "ComponentPlan",
    "iter_assignments",
    "explain",
    "boolean_match_acyclic",
    "proper_endomorphism_assignment",
    "GROUND",
    "SEMIJOIN",
    "BACKTRACK",
]

#: Strategy labels reported by :func:`explain`.
GROUND = "ground"
SEMIJOIN = "semijoin"
BACKTRACK = "backtrack"


def _is_free_kind(term: Term) -> bool:
    return isinstance(term, (BNode, Variable))


class _CompiledTriple:
    """One pattern triple with constants/pre-bound terms substituted.

    ``const`` holds the fixed **term ID** per position (None where
    free), resolved against the target's dictionary — a constant the
    target never mentions gets a distinct negative sentinel ID, so it
    matches nothing without growing the dictionary; ``free_at`` lists
    (position, term) for the free positions; ``free`` is the tuple of
    distinct free terms in position order.  The search itself runs
    entirely over IDs; only ``triple``/``free``/``key`` stay term-level
    for plan introspection and deterministic canonicalization.
    """

    __slots__ = ("triple", "const", "free_at", "free", "key")

    def __init__(
        self,
        t: Triple,
        frozen: FrozenSet[Term],
        partial: Dict[Term, Term],
        encode,
    ):
        const: List[Optional[int]] = []
        free_at: List[Tuple[int, Term]] = []
        free: List[Term] = []
        shape: List[Term] = []
        for pos, term in enumerate(t):
            if _is_free_kind(term) and term not in frozen:
                bound = partial.get(term)
                if bound is not None:
                    const.append(encode(bound))
                    shape.append(bound)
                else:
                    const.append(None)
                    shape.append(term)
                    free_at.append((pos, term))
                    if term not in free:
                        free.append(term)
            else:
                const.append(encode(term))
                shape.append(term)
        self.triple = t
        self.const = tuple(const)
        self.free_at = tuple(free_at)
        self.free = tuple(free)
        # Deterministic identity: the substituted pattern (free positions
        # keep their term so distinct variables stay distinct).
        self.key = tuple(sort_key(x) for x in shape)

    def args(self, assignment: Dict[Term, int]):
        """(s, p, o) IDs with constants and current bindings, else None."""
        s, p, o = self.const
        for pos, term in self.free_at:
            v = assignment.get(term)
            if pos == 0:
                s = v
            elif pos == 1:
                p = v
            else:
                o = v
        return s, p, o


@dataclass(frozen=True)
class ComponentPlan:
    """What the planner decided for one connected component."""

    triples: Tuple[Triple, ...]
    free_terms: Tuple[Term, ...]
    strategy: str
    domain_sizes: Tuple[Tuple[Term, int], ...]
    pruned_empty: bool

    def describe(self) -> str:
        doms = ", ".join(f"{t}:{n}" for t, n in self.domain_sizes)
        note = " (refuted by pruning)" if self.pruned_empty else ""
        return (
            f"{self.strategy}[{len(self.triples)} triples, "
            f"{len(self.free_terms)} free; domains {doms or '-'}]{note}"
        )


@dataclass(frozen=True)
class MatchPlan:
    """The full plan: ground prechecks plus one entry per component."""

    ground_checked: int
    ground_ok: bool
    components: Tuple[ComponentPlan, ...]

    def strategies(self) -> Tuple[str, ...]:
        """Per-component strategy labels (``ground`` when none remain)."""
        if not self.components:
            return (GROUND,)
        return tuple(c.strategy for c in self.components)

    def describe(self) -> str:
        lines = [
            f"ground: {self.ground_checked} checked"
            + ("" if self.ground_ok else " (FAILED)")
        ]
        lines.extend(c.describe() for c in self.components)
        return "\n".join(lines)


class _ComponentSolver:
    """Domains, arc consistency and search for one connected component.

    ``target`` is the target graph's :class:`EncodedGraph` view;
    domains, base candidate lists and the whole search run over term
    IDs (``exclude`` too).  Because the per-graph dictionary is
    order-isomorphic, sorting candidate rows as plain int tuples
    reproduces the term-level deterministic enumeration order exactly.
    """

    __slots__ = (
        "triples",
        "target",
        "exclude",
        "free_terms",
        "term_to_triples",
        "base",
        "domains",
        "strategy",
        "static_order",
        "failed",
    )

    def __init__(
        self,
        triples: List[_CompiledTriple],
        target: EncodedGraph,
        exclude: Optional[Row],
    ):
        self.triples = triples
        self.target = target
        self.exclude = exclude
        self.free_terms = tuple(
            sorted({term for ct in triples for term in ct.free}, key=sort_key)
        )
        term_to_triples: Dict[Term, List[int]] = {t: [] for t in self.free_terms}
        for i, ct in enumerate(triples):
            for term in ct.free:
                term_to_triples[term].append(i)
        self.term_to_triples = term_to_triples
        self.base: List[List[Row]] = []
        self.domains: Dict[Term, Set[int]] = {}
        self.failed = False
        self.strategy = self._structural_strategy()
        self.static_order = (
            self._static_order() if self.strategy == SEMIJOIN else None
        )
        for ct in triples:
            cands = self._base_candidates(ct)
            self.base.append(cands)
            if not cands:
                self.failed = True
        if not self.failed:
            self._arc_consistency()
        if OBS.enabled:
            reg = OBS.registry
            reg.inc(f"planner.strategy.{self.strategy}")
            if self.failed:
                reg.inc("planner.pruned_empty")
            for term in self.free_terms:
                # Candidate-domain size after arc consistency: the
                # quantity Theorem 2.9's hard instances blow up.
                reg.observe(
                    "planner.domain_size", len(self.domains.get(term, ()))
                )

    # -- structure ------------------------------------------------------

    def _structural_strategy(self) -> str:
        """``semijoin`` iff the free-term constraint graph is a tree.

        Requirements: every free term sits in subject/object position
        (a free predicate makes a ternary constraint), no two triples
        constrain the same pair of free terms (parallel edges = a
        length-2 cycle in the paper's reading of Section 2.4), and the
        pair graph is acyclic.  Repeated terms within one triple are
        unary constraints and do not affect the shape.
        """
        parent: Dict[Term, Term] = {t: t for t in self.free_terms}

        def find(x: Term) -> Term:
            while parent[x] is not x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        seen_pairs: Set[Tuple[Term, Term]] = set()
        for ct in self.triples:
            if any(pos == 1 for pos, _ in ct.free_at):
                return BACKTRACK
            if len(ct.free) < 2:
                continue
            a, b = ct.free
            pair = (a, b) if sort_key(a) <= sort_key(b) else (b, a)
            if pair in seen_pairs:
                return BACKTRACK  # parallel edge between the same terms
            seen_pairs.add(pair)
            ra, rb = find(a), find(b)
            if ra is rb:
                return BACKTRACK  # closing a cycle
            parent[ra] = rb
        return SEMIJOIN

    def _static_order(self) -> List[int]:
        """A connected triple order (each next triple shares a bound term).

        With arc-consistent domains on a tree-shaped component this
        order makes the search backtrack-free for the first solution:
        every expansion has at most one unbound term, and every value in
        an arc-consistent domain extends to the whole subtree.
        """
        n = len(self.triples)
        remaining = set(range(n))
        bound: Set[Term] = set()
        order: List[int] = []
        while remaining:
            best = None
            best_rank = None
            for i in sorted(remaining):
                unbound = sum(1 for t in self.triples[i].free if t not in bound)
                rank = (unbound, i)
                if best_rank is None or rank < best_rank:
                    best, best_rank = i, rank
            order.append(best)
            remaining.discard(best)
            bound.update(self.triples[best].free)
        return order

    # -- domains and arc consistency ------------------------------------

    def _base_candidates(self, ct: _CompiledTriple) -> List[Row]:
        """Target rows matching the constant positions of *ct*.

        Reads one contiguous sorted run from the target's columnar view
        (:meth:`EncodedGraph.runs`): the bound-constant prefix becomes a
        pair of galloping binary searches instead of a hash probe that
        materializes a per-pattern row set.  The run is already in row
        order, so the base lists — and everything arc consistency
        derives from them — come out deterministically sorted for free.
        Filters the excluded row and intra-triple repeated-term
        inconsistencies; does not yet apply domains.
        """
        exclude = self.exclude
        matched = self.target.runs().match_range(*ct.const)
        if len(ct.free_at) > len(ct.free):
            # Repeated free term within one triple: keep only candidates
            # whose positions agree (e.g. (x, p, x) needs c.s == c.o).
            out = []
            for c in matched:
                if exclude is not None and c == exclude:
                    continue
                binds: Dict[Term, int] = {}
                ok = True
                for pos, term in ct.free_at:
                    v = c[pos]
                    prev = binds.get(term)
                    if prev is None:
                        binds[term] = v
                    elif prev != v:
                        ok = False
                        break
                if ok:
                    out.append(c)
            return out
        if exclude is not None:
            return [c for c in matched if c != exclude]
        return list(matched)

    def _arc_consistency(self) -> None:
        """Build candidate domains and narrow them to arc consistency.

        Domains start as "unconstrained" and each revision intersects
        them with the values a triple's surviving candidates support, so
        the first sweep both constructs and prunes them; later sweeps
        only fire along arcs whose domain actually shrank.  On a
        tree-shaped component this is exactly Yannakakis' semijoin
        reduction; on cyclic components it is still a sound polynomial
        filter before backtracking.
        """
        guard = current_guard()
        domains = self.domains
        base = self.base
        queue = set(range(len(self.triples)))
        while queue:
            if guard is not None:
                guard.tick()
            i = min(queue)  # deterministic order (fixpoint is unique anyway)
            queue.discard(i)
            ct = self.triples[i]
            free_at = ct.free_at
            if not free_at:
                continue
            cands = base[i]
            if len(free_at) == 1:
                (pos, term), = free_at
                dom = domains.get(term)
                if dom is not None:
                    cands = [c for c in cands if c[pos] in dom]
                supported = ({c[pos] for c in cands},)
            elif len(free_at) == 2 and len(ct.free) == 2:
                (pos_a, term_a), (pos_b, term_b) = free_at
                dom_a = domains.get(term_a)
                dom_b = domains.get(term_b)
                if dom_a is not None and dom_b is not None:
                    cands = [
                        c for c in cands
                        if c[pos_a] in dom_a and c[pos_b] in dom_b
                    ]
                elif dom_a is not None:
                    cands = [c for c in cands if c[pos_a] in dom_a]
                elif dom_b is not None:
                    cands = [c for c in cands if c[pos_b] in dom_b]
                supported = (
                    {c[pos_a] for c in cands},
                    {c[pos_b] for c in cands},
                )
            else:
                kept = []
                per_term: Dict[Term, Set[int]] = {t: set() for t in ct.free}
                for c in cands:
                    ok = True
                    for pos, term in free_at:
                        dom = domains.get(term)
                        if dom is not None and c[pos] not in dom:
                            ok = False
                            break
                    if ok:
                        kept.append(c)
                        for pos, term in free_at:
                            per_term[term].add(c[pos])
                cands = kept
                supported = tuple(per_term[t] for t in ct.free)
            base[i] = cands
            if not cands:
                self.failed = True
                return
            for term, values in zip(ct.free, supported):
                old = domains.get(term)
                if old is None or len(values) < len(old):
                    domains[term] = values
                    if old is not None:
                        for j in self.term_to_triples[term]:
                            if j != i:
                                queue.add(j)

    # -- introspection ---------------------------------------------------

    def plan(self) -> ComponentPlan:
        return ComponentPlan(
            triples=tuple(ct.triple for ct in self.triples),
            free_terms=self.free_terms,
            strategy=self.strategy,
            domain_sizes=tuple(
                (t, len(self.domains.get(t, ()))) for t in self.free_terms
            ),
            pruned_empty=self.failed,
        )

    def with_exclude(self, exclude: Row) -> "_ComponentSolver":
        """A copy of this (prepared) solver with one more excluded row.

        Reuses the compiled triples, base candidate lists and domains:
        only candidates equal to *exclude* are dropped, then arc
        consistency is re-established incrementally.  This is what makes
        the leanness/core loop cheap: the expensive per-graph
        preparation happens once, not once per excluded triple.
        """
        guard = current_guard()
        if guard is not None:
            guard.tick()
        clone = object.__new__(_ComponentSolver)
        clone.triples = self.triples
        clone.target = self.target
        clone.exclude = exclude
        clone.free_terms = self.free_terms
        clone.term_to_triples = self.term_to_triples
        clone.strategy = self.strategy
        clone.static_order = self.static_order
        clone.failed = self.failed
        clone.domains = {t: set(d) for t, d in self.domains.items()}
        touched = []
        base = []
        for i, cands in enumerate(self.base):
            if exclude in self.base[i]:
                cands = [c for c in cands if c != exclude]
                touched.append(i)
            base.append(list(cands))
            if not cands:
                clone.failed = True
        clone.base = base
        if touched and not clone.failed:
            # Re-derive the affected domains, then restore arc consistency.
            for i in touched:
                ct = clone.triples[i]
                supported: Dict[Term, Set[int]] = {t: set() for t in ct.free}
                for c in clone.base[i]:
                    for pos, term in ct.free_at:
                        supported[term].add(c[pos])
                for term in ct.free:
                    clone.domains[term] &= supported[term]
            if any(not d for d in clone.domains.values()):
                clone.failed = True
            else:
                clone._arc_consistency()
        return clone

    # -- search ----------------------------------------------------------

    def solutions(self, ordered: bool = True) -> Iterator[Dict[Term, Term]]:
        """Enumerate this component's assignments, deterministically.

        The search state (``assignment``) holds term IDs; each solution
        is decoded back to terms at yield time, so callers never see
        the encoding.
        """
        if self.failed:
            return
        if not self.triples:
            yield {}
            return

        target = self.target
        rows = target.rows
        decode = target.terms.decode
        exclude = self.exclude
        triples = self.triples
        domains = self.domains
        n = len(triples)
        assignment: Dict[Term, int] = {}
        satisfied = [False] * n
        counts = [len(b) for b in self.base]
        static_order = self.static_order
        term_to_triples = self.term_to_triples

        def choose() -> int:
            if static_order is not None:
                for i in static_order:
                    if not satisfied[i]:
                        return i
                return -1
            best = -1
            best_count = None
            for i in range(n):
                if satisfied[i]:
                    continue
                c = counts[i]
                if best_count is None or c < best_count:
                    best, best_count = i, c
                    if c == 0:
                        break
            return best

        def bind(i: int, cand: Row):
            """Commit candidate *cand* for triple *i*; None on conflict.

            Returns an undo record: (bound terms, satisfied triples,
            count restores).  Marks as satisfied every triple that the
            new bindings fully instantiate (checking membership), and
            refreshes the candidate counts of every other affected
            triple (forward checking: a zero count is a dead end).
            """
            bound_terms: List[Term] = []
            marked: List[int] = [i]
            restores: List[Tuple[int, int]] = []
            satisfied[i] = True
            ok = True
            for pos, term in triples[i].free_at:
                if term in assignment:
                    # Already bound (by an earlier position of this very
                    # candidate, or a previous triple): must agree.
                    if assignment[term] != cand[pos]:
                        ok = False
                        break
                    continue
                assignment[term] = cand[pos]
                bound_terms.append(term)
            if ok:
                affected: Set[int] = set()
                for term in bound_terms:
                    affected.update(term_to_triples[term])
                for j in sorted(affected):
                    if satisfied[j]:
                        continue
                    s, p, o = triples[j].args(assignment)
                    if s is not None and p is not None and o is not None:
                        t = (s, p, o)
                        if t in rows and (exclude is None or t != exclude):
                            satisfied[j] = True
                            marked.append(j)
                        else:
                            ok = False
                            break
                    else:
                        restores.append((j, counts[j]))
                        counts[j] = target.count(s, p, o)
                        if counts[j] == 0:
                            ok = False
                            break
            undo = (bound_terms, marked, restores)
            if ok:
                return undo
            _unbind(undo)
            return None

        def _unbind(undo) -> None:
            bound_terms, marked, restores = undo
            for term in bound_terms:
                del assignment[term]
            for j in marked:
                satisfied[j] = False
            for j, old in restores:
                counts[j] = old

        def candidates(i: int) -> List[Row]:
            s, p, o = triples[i].args(assignment)
            out: List[Row] = []
            for c in target.match(s, p, o):
                if exclude is not None and c == exclude:
                    continue
                ok = True
                binds: Dict[Term, int] = {}
                for pos, term in triples[i].free_at:
                    if term in assignment:
                        continue  # match already pinned this position
                    v = c[pos]
                    prev = binds.get(term)
                    if prev is None:
                        if v not in domains[term]:
                            ok = False
                            break
                        binds[term] = v
                    elif prev != v:
                        ok = False
                        break
                if ok:
                    out.append(c)
            if ordered:
                # Deterministic enumeration; witness-only callers (a
                # Boolean answer) may skip the sort.  Rows sort as plain
                # int tuples — the order-isomorphic dictionary makes
                # this identical to the term-level sort-key order.
                out.sort()
            return out

        backtracks = 0
        found = 0
        # Resolved once per enumeration: the ambient budget guard.  One
        # candidate tried = one step; with no guard installed the cost
        # per candidate is a single ``is not None`` test.
        guard = current_guard()

        def search(remaining: int) -> Iterator[Dict[Term, Term]]:
            nonlocal backtracks
            if remaining == 0:
                yield {term: decode(v) for term, v in assignment.items()}
                return
            i = choose()
            if i < 0:
                return
            for cand in candidates(i):
                if guard is not None:
                    guard.tick()
                undo = bind(i, cand)
                if undo is None:
                    backtracks += 1  # rejected candidate: dead end
                    continue
                yield from search(remaining - len(undo[1]))
                _unbind(undo)
                backtracks += 1  # binding undone after exploration

        # Solutions are counted eagerly (a witness-only caller abandons
        # the generator right after the first yield, and its GC-time
        # finalization may run after instrumentation was switched off);
        # the hot backtrack tally stays local and flushes once, into
        # the registry that was active when enumeration started.
        reg = OBS.registry if OBS.enabled else None
        try:
            for sol in search(n):
                found += 1
                if OBS.enabled:
                    OBS.registry.inc("planner.solutions")
                yield sol
        finally:
            flush_reg = OBS.registry if OBS.enabled else reg
            if flush_reg is not None:
                flush_reg.inc("planner.backtracks", backtracks)


class _PreparedMatch:
    """A planned pattern/target pair, ready to enumerate or explain."""

    __slots__ = (
        "partial",
        "components",
        "failed",
        "ground_checked",
        "ground_ok",
        "exclude_row",
    )

    def __init__(
        self,
        pattern: Sequence[Triple],
        target: RDFGraph,
        frozen: Iterable[Term] = (),
        partial: Optional[Dict[Term, Term]] = None,
        exclude: Optional[Triple] = None,
    ):
        with OBS.span("planner.prepare", pattern=len(pattern)) as span:
            self._prepare(pattern, target, frozen, partial, exclude)
            if OBS.enabled:
                OBS.registry.inc("planner.prepared")
                span.annotate(
                    components=len(self.components),
                    strategies=",".join(
                        s.strategy for s in self.components
                    ),
                    failed=self.failed,
                )

    def _prepare(
        self,
        pattern: Sequence[Triple],
        target: RDFGraph,
        frozen: Iterable[Term],
        partial: Optional[Dict[Term, Term]],
        exclude: Optional[Triple],
    ) -> None:
        frozen_set = frozenset(frozen)
        self.partial: Dict[Term, Term] = dict(partial or {})
        self.ground_checked = 0
        self.ground_ok = True

        # Everything from here on runs against the target's cached
        # encoded view.  Pattern constants resolve through a
        # non-interning lookup; constants the target never mentions get
        # distinct negative sentinel IDs (distinct so two different
        # unknown constants never alias one compiled-triple shape).
        enc = target.encoded()
        lookup = enc.terms.lookup
        missing: Dict[Term, int] = {}

        def encode(term: Term) -> int:
            i = lookup(term)
            if i is None:
                i = missing.get(term)
                if i is None:
                    i = -1 - len(missing)
                    missing[term] = i
            return i

        exclude_row: Optional[Row] = None
        if exclude is not None:
            er = enc.terms.lookup_triple(exclude)
            # A row the target does not even mention can never be
            # matched, so the exclusion is vacuous when er is None.
            exclude_row = er if er is not None and er in enc.rows else None
        self.exclude_row = exclude_row

        compiled: Dict[Tuple, _CompiledTriple] = {}
        for t in pattern:
            ct = _CompiledTriple(t, frozen_set, self.partial, encode)
            if not ct.free:
                # Fully constant (possibly via partial): check membership.
                self.ground_checked += 1
                instance = ct.const
                if instance not in enc.rows or (
                    exclude_row is not None and instance == exclude_row
                ):
                    self.ground_ok = False
            elif ct.key not in compiled:
                compiled[ct.key] = ct

        ordered = sorted(compiled.values(), key=lambda ct: ct.key)

        # Union-find over free terms to split connected components.
        parent: Dict[Term, Term] = {}

        def find(x: Term) -> Term:
            while parent[x] is not x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for ct in ordered:
            for term in ct.free:
                parent.setdefault(term, term)
            root = find(ct.free[0])
            for term in ct.free[1:]:
                r = find(term)
                if r is not root:
                    parent[r] = root

        groups: Dict[Term, List[_CompiledTriple]] = {}
        for ct in ordered:
            groups.setdefault(find(ct.free[0]), []).append(ct)

        # Components in the deterministic order of their first triple.
        component_lists = sorted(groups.values(), key=lambda g: g[0].key)
        self.components = [
            _ComponentSolver(group, enc, exclude_row)
            for group in component_lists
        ]
        self.failed = not self.ground_ok or any(
            s.failed for s in self.components
        )

    def plan(self) -> MatchPlan:
        return MatchPlan(
            ground_checked=self.ground_checked,
            ground_ok=self.ground_ok,
            components=tuple(s.plan() for s in self.components),
        )

    def assignments(self) -> Iterator[Dict[Term, Term]]:
        guard = current_guard()
        if self.failed:
            return
        if not self.components:
            if guard is not None:
                guard.note_result()
            yield dict(self.partial)
            return

        solvers = self.components
        k = len(solvers)
        caches: List[List[Dict[Term, Term]]] = [[] for _ in range(k)]
        gens = [s.solutions() for s in solvers]
        exhausted = [False] * k

        def component_solutions(i: int) -> Iterator[Dict[Term, Term]]:
            yield from caches[i]
            if not exhausted[i]:
                for sol in gens[i]:
                    caches[i].append(sol)
                    yield sol
                exhausted[i] = True

        # Short-circuit: every component must have at least one solution,
        # otherwise the product is empty and enumeration order would
        # degenerate into re-solving non-empty components for nothing.
        def product(i: int, acc: Dict[Term, Term]) -> Iterator[Dict[Term, Term]]:
            if i == k:
                yield dict(acc)
                return
            for sol in component_solutions(i):
                merged = dict(acc)
                merged.update(sol)
                yield from product(i + 1, merged)

        try:
            for i in range(k):
                if not any(True for _ in _first(component_solutions(i))):
                    return

            if guard is None:
                yield from product(0, dict(self.partial))
            else:
                # Result-cap accounting: each emitted assignment counts
                # against the ambient budget's ``max_results``.
                for sol in product(0, dict(self.partial)):
                    guard.note_result()
                    yield sol
        finally:
            # The per-component generators sit in reference cycles (the
            # cache closures), so an abandoned enumeration would only
            # finalize them at an arbitrary later GC pass; when a
            # profiling window is open, close them here so their
            # instrumentation flushes before it ends.  While disabled,
            # leave finalization to GC — eagerly unwinding the search
            # stack would tax every witness-only caller for nothing.
            if OBS.enabled:
                for gen in gens:
                    gen.close()


def _first(it: Iterator) -> Iterator:
    for x in it:
        yield x
        return


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------


def iter_assignments(
    pattern: Sequence[Triple],
    target: RDFGraph,
    frozen: Iterable[Term] = (),
    partial: Optional[Dict[Term, Term]] = None,
    exclude: Optional[Triple] = None,
) -> Iterator[Dict[Term, Term]]:
    """Enumerate assignments of the pattern's free terms into *target*.

    Drop-in engine behind :func:`repro.core.homomorphism.iter_assignments`
    (see there for the parameter semantics); *exclude* additionally bans
    any pattern triple from instantiating to that exact target triple.
    Enumeration is deterministic across runs and independent of the
    input order of *pattern* (triples are canonicalized up front).
    """
    prep = _PreparedMatch(pattern, target, frozen, partial, exclude)
    return prep.assignments()


def explain(
    pattern: Sequence[Triple],
    target: RDFGraph,
    frozen: Iterable[Term] = (),
    partial: Optional[Dict[Term, Term]] = None,
) -> MatchPlan:
    """The :class:`MatchPlan` that :func:`iter_assignments` would execute."""
    return _PreparedMatch(pattern, target, frozen, partial).plan()


def boolean_match_acyclic(
    pattern: Sequence[Triple], target: RDFGraph
) -> Optional[bool]:
    """Fast Boolean matching when every component routes to ``semijoin``.

    Returns True/False when the planner can decide the match entirely
    through the acyclic pipeline (arc-consistency = semijoin reduction +
    backtrack-free witness search), or None when some component is
    cyclic and the caller should pick a general procedure.  This is the
    polynomial path of Section 2.4 run directly on the graph indexes.
    """
    prep = _PreparedMatch(pattern, target)
    if any(s.strategy != SEMIJOIN for s in prep.components):
        return None
    if prep.failed:
        return False
    for solver in prep.components:
        if not any(True for _ in _first(solver.solutions(ordered=False))):
            return False
    return True


def proper_endomorphism_assignment(
    graph: RDFGraph,
) -> Optional[Dict[Term, Term]]:
    """An assignment witnessing ``μ(G) ⊊ G``, or None if *graph* is lean.

    Tries to exclude each non-ground triple in deterministic order
    (Theorem 3.10's construction).  The pattern preparation — component
    split, candidate domains, arc consistency — is computed once against
    the full graph and *reused* across every excluded triple via
    :meth:`_ComponentSolver.with_exclude`, instead of rebuilding target
    indexes and domains from scratch per exclusion.
    """
    if graph.is_ground():
        return None
    base = _PreparedMatch(list(graph), graph)
    if base.failed:  # cannot happen for a self-match, but stay safe
        return None
    lookup_triple = graph.encoded().terms.lookup_triple
    guard = current_guard()
    for t in graph.sorted_triples():
        if t.is_ground():
            continue
        if guard is not None:
            guard.tick()  # one excluded-triple search attempted
        row = lookup_triple(t)  # t ∈ graph, so always resolvable
        solvers = [s.with_exclude(row) for s in base.components]
        if any(s.failed for s in solvers):
            continue
        found: List[Dict[Term, Term]] = []
        for solver in solvers:
            sol = None
            for sol in _first(solver.solutions()):
                break
            if sol is None:
                found = []
                break
            found.append(sol)
        if found:
            assignment: Dict[Term, Term] = {}
            for sol in found:
                assignment.update(sol)
            return assignment
    return None
