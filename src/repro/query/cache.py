"""Semantic answer cache (Section 5 applied).

Serving layer for :meth:`repro.store.TripleStore.query`.  Each
evaluated body caches its full *unfiltered* valuation set (every
matching ``v`` with ``v(B) ⊆ nf(D)``, before the constraint filter).
An incoming query is admitted against a cached entry by a Theorem
5.5/5.7-style certificate: a substitution σ of the entry body ``B′``'s
variables with ``σ(B′) = B`` *exactly* (as triple sets; σ may merge
variables or bind them to constants).  This is the fragment of the
theorem's ``θ(B′) ⊆ nf(B)`` condition under which cached valuations
can be *completely* re-targeted: for any matching ``w`` of ``B′``,
``w ∘ σ`` restricted consistently is a matching of ``B``, and
conversely every matching ``v`` of ``B`` arises as ``v ∘ σ`` — so
filtering the cached valuation list yields exactly the matchings of
``B``, a scan instead of a search.  The incoming query's *own* head,
constraints and Skolem functions are then applied via
:func:`repro.query.answers.answers_from_valuations`, making cached
answers byte-identical to uncached ones.

The certificate search reuses the containment module's frozen-variable
machinery (``B``'s variables frozen as reserved URIs, ``B′`` matched
into the frozen graph by the planner), collision-escaped exactly like
:func:`repro.query.containment.body_substitutions`.

**Invalidation is exact, not TTL-based.**  The store's DRed commit
pipeline reports each batched delta's *net closure row changes*
(insertions from ``extend_fixpoint_into``, surviving deletions from
``retract_fixpoint_into``).  For a ground dataset ``nf = cl`` (a ground
graph is its own core), so an entry's valuations can only change when a
changed closure row *matches one of its body patterns* — constants must
equal the row's interned IDs, variables match anything.  Entries whose
patterns overlap no changed row survive the delta; the rest are
dropped.  Datasets containing blank nodes get a conservative full
flush (core folding can propagate a delta across predicates), as do
oversized deltas and recovery paths.  A monotonic store version guards
every read as a belt-and-braces check.

Eviction: LRU over answer entries under a byte budget (valuations and
memoized answer graphs are size-estimated) and an entry cap.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from ..core.graph import RDFGraph
from ..core.homomorphism import iter_assignments
from ..core.terms import Term, Triple, Variable
from .answers import answers_from_valuations
from .containment import _escape_term, _freeze_pattern, _thaw_term
from .matching import Valuation
from .tableau import PatternGraph, Query

__all__ = ["QueryCache"]

#: Counter names (declared at zero in repro.obs.STANDARD_COUNTERS).
HITS = "query.cache.hits"
MISSES = "query.cache.misses"
CONTAINMENT_HITS = "query.cache.containment_hits"
INVALIDATIONS = "query.cache.invalidations"
EVICTIONS = "query.cache.evictions"

#: Certificate search: assignments examined per candidate entry before
#: giving up (bounds pathological automorphism-rich bodies).
_CERTIFICATE_BUDGET = 200

#: Deltas larger than this flush the whole cache instead of testing
#: overlap row by row.
_MAX_SELECTIVE_ROWS = 512

_ABSENT = object()


def _body_patterns(body: PatternGraph) -> Tuple[Tuple[Optional[Term], ...], ...]:
    """Invalidation view of a body: constants kept, variables → None."""
    return tuple(
        tuple(None if isinstance(x, Variable) else x for x in (t.s, t.p, t.o))
        for t in body
    )


def _overlaps(patterns, rows, resolve, memo) -> bool:
    """Can any pattern triple match any changed closure row?

    ``resolve`` maps a constant term to its interned ID (None when the
    store has never seen the term — then no existing row can mention
    it).  A variable position matches any ID; a constant position must
    equal the row's ID exactly.
    """
    for pattern in patterns:
        ids = []
        resolvable = True
        for term in pattern:
            if term is None:
                ids.append(None)
                continue
            i = memo.get(term, _ABSENT)
            if i is _ABSENT:
                i = resolve(term)
                memo[term] = i
            if i is None:
                resolvable = False
                break
            ids.append(i)
        if not resolvable:
            continue
        s, p, o = ids
        for row in rows:
            if (
                (s is None or s == row[0])
                and (p is None or p == row[1])
                and (o is None or o == row[2])
            ):
                return True
    return False


class _CacheEntry:
    __slots__ = (
        "body",
        "variables",
        "valuations",
        "patterns",
        "answers",
        "bytes",
        "version",
    )

    def __init__(self, body: PatternGraph, valuations: List[Valuation], version: int):
        self.body = body
        self.variables: FrozenSet[Variable] = frozenset(body.variables())
        #: Every matching of the body into nf(D), *unfiltered* by any
        #: constraint set — so differently-constrained queries over the
        #: same (or a subsuming) body can all be served from it.
        self.valuations = valuations
        self.patterns = _body_patterns(body)
        #: Memoized final graphs keyed by (query, semantics).
        self.answers: Dict[Tuple[Query, str], RDFGraph] = {}
        self.version = version
        self.bytes = 256 + sum(
            48 + 56 * len(v) for v in valuations
        )


def _answer_bytes(graph: RDFGraph) -> int:
    return 64 + 120 * len(graph)


class QueryCache:
    """LRU answer cache; see the module docstring for semantics.

    ``count`` is the owning store's counter hook (metric name, amount);
    all ``query.cache.*`` counters flow through it so ``repro stats``
    and the obs registry see them.
    """

    def __init__(
        self,
        max_bytes: int = 32 << 20,
        max_entries: int = 256,
        count: Optional[Callable] = None,
    ):
        self.max_bytes = max_bytes
        self.max_entries = max_entries
        self._count = count if count is not None else (lambda name, amount=1: None)
        self._entries: "OrderedDict[PatternGraph, _CacheEntry]" = OrderedDict()
        self._by_query: Dict[Tuple[Query, str], PatternGraph] = {}
        self._bytes = 0

    # -- introspection -------------------------------------------------

    def info(self) -> Dict[str, int]:
        return {
            "entries": len(self._entries),
            "bytes": self._bytes,
            "max_bytes": self.max_bytes,
        }

    def __len__(self) -> int:
        return len(self._entries)

    # -- serving -------------------------------------------------------

    def answer(
        self, query: Query, semantics: str, target: RDFGraph, version: int
    ) -> RDFGraph:
        """Serve ``ans(query, D)`` where ``target = nf(D)`` at *version*.

        Premise-free queries only (the store routes premised queries
        around the cache: their matching target ``nf(D + P)`` is not
        the store's normal form).
        """
        served = self._serve_cached(query, semantics, version)
        if served is not None:
            return served
        self._count(MISSES)
        valuations = self._evaluate(query, target)
        graph = answers_from_valuations(query, valuations, semantics)
        entry = self._entries.get(query.body)
        if entry is None or entry.version != version:
            entry = _CacheEntry(query.body, valuations, version)
            self._store_entry(entry)
        self._memoize(entry, (query, semantics), graph)
        self._evict()
        return graph

    def _serve_cached(
        self, query: Query, semantics: str, version: int
    ) -> Optional[RDFGraph]:
        key = (query, semantics)
        body = self._by_query.get(key)
        if body is not None:
            entry = self._entries.get(body)
            if entry is not None and entry.version == version:
                self._entries.move_to_end(body)
                self._count(HITS)
                return entry.answers[key]
            # Stale index row (version guard tripped): drop it.
            self._drop_entry(body)

        # Identity certificate: an entry over this exact body serves
        # any head/constraint/semantics variant by re-instantiation.
        entry = self._entries.get(query.body)
        if entry is not None and entry.version == version:
            self._entries.move_to_end(query.body)
            self._count(CONTAINMENT_HITS)
            graph = answers_from_valuations(query, entry.valuations, semantics)
            self._memoize(entry, key, graph)
            self._evict()
            return graph

        found = self._find_certificate(query, version)
        if found is None:
            return None
        entry, sigma = found
        self._entries.move_to_end(entry.body)
        self._count(CONTAINMENT_HITS)
        valuations = self._retarget(entry, sigma, query)
        graph = answers_from_valuations(query, valuations, semantics)
        self._memoize(entry, key, graph)
        self._evict()
        return graph

    def _find_certificate(self, query: Query, version: int):
        """MRU-first scan for an entry with ``σ(B′) = B``."""
        body = query.body
        body_set = frozenset(body)
        body_len = len(body_set)
        body_constants = frozenset(
            x for t in body for x in (t.s, t.p, t.o) if not isinstance(x, Variable)
        )
        frozen_body: Optional[RDFGraph] = None
        for entry in reversed(self._entries.values()):
            if entry.version != version or entry.body == body:
                continue
            if len(entry.body) < body_len:
                continue  # σ maps B′ onto B, so |B′| ≥ |B|
            if not self._entry_constants(entry) <= body_constants:
                continue  # σ fixes constants, so each must appear in B
            if frozen_body is None:
                frozen_body = _freeze_pattern(body)
            sigma = self._certificate(entry, body_set, frozen_body)
            if sigma is not None:
                return entry, sigma
        return None

    @staticmethod
    def _entry_constants(entry: _CacheEntry) -> FrozenSet[Term]:
        return frozenset(
            term for pattern in entry.patterns for term in pattern
            if term is not None
        )

    @staticmethod
    def _certificate(entry, body_set, frozen_body):
        """A substitution σ of the entry's body variables with
        ``σ(B′) = body`` exactly, or None.  Runs the planner against the
        frozen incoming body, the same way the containment decision
        procedure does (collision escaping included)."""
        pattern = [
            Triple(
                t.s if isinstance(t.s, Variable) else _escape_term(t.s),
                t.p if isinstance(t.p, Variable) else _escape_term(t.p),
                t.o if isinstance(t.o, Variable) else _escape_term(t.o),
            )
            for t in entry.body
        ]
        examined = 0
        for assignment in iter_assignments(pattern, frozen_body):
            sigma = {
                v: _thaw_term(term)
                for v, term in assignment.items()
                if isinstance(v, Variable)
            }
            applied = set()
            for t in entry.body:
                applied.add(
                    Triple(
                        sigma.get(t.s, t.s) if isinstance(t.s, Variable) else t.s,
                        sigma.get(t.p, t.p) if isinstance(t.p, Variable) else t.p,
                        sigma.get(t.o, t.o) if isinstance(t.o, Variable) else t.o,
                    )
                )
            if applied == body_set:
                return sigma
            examined += 1
            if examined >= _CERTIFICATE_BUDGET:
                break
        return None

    @staticmethod
    def _retarget(
        entry: _CacheEntry, sigma: Dict[Variable, Term], query: Query
    ) -> List[Valuation]:
        """Filter/substitute cached valuations through σ.

        ``w ↦ v`` with ``v(x) = w(y)`` for ``σ(y) = x``; a valuation is
        dropped when σ binds ``y`` to a constant ``w`` disagrees with,
        or merges variables ``w`` binds apart.  Complete because every
        matching ``v`` of the incoming body induces the cached matching
        ``v ∘ σ`` (see module docstring).
        """
        pairs = [(y, sigma[y]) for y in entry.variables]
        out: List[Valuation] = []
        for w in entry.valuations:
            v: Valuation = {}
            ok = True
            for y, image in pairs:
                wy = w[y]
                if isinstance(image, Variable):
                    current = v.get(image, _ABSENT)
                    if current is _ABSENT:
                        v[image] = wy
                    elif current != wy:
                        ok = False
                        break
                elif wy != image:
                    ok = False
                    break
            if ok:
                out.append(v)
        return out

    # -- evaluation ----------------------------------------------------

    @staticmethod
    def _evaluate(query: Query, target: RDFGraph) -> List[Valuation]:
        """All matchings of the body into *target*, unfiltered."""
        return [
            {x: t for x, t in assignment.items() if isinstance(x, Variable)}
            for assignment in iter_assignments(list(query.body), target)
        ]

    # -- admission / eviction ------------------------------------------

    def _store_entry(self, entry: _CacheEntry) -> None:
        old = self._entries.pop(entry.body, None)
        if old is not None:
            self._forget_bytes(old)
        self._entries[entry.body] = entry
        self._bytes += entry.bytes

    def _memoize(self, entry: _CacheEntry, key, graph: RDFGraph) -> None:
        if key not in entry.answers:
            entry.answers[key] = graph
            cost = _answer_bytes(graph)
            entry.bytes += cost
            self._bytes += cost
            self._by_query[key] = entry.body

    def _forget_bytes(self, entry: _CacheEntry) -> None:
        self._bytes -= entry.bytes
        for key in entry.answers:
            self._by_query.pop(key, None)

    def _drop_entry(self, body: PatternGraph) -> None:
        entry = self._entries.pop(body, None)
        if entry is not None:
            self._forget_bytes(entry)

    def _evict(self) -> None:
        while self._entries and (
            self._bytes > self.max_bytes or len(self._entries) > self.max_entries
        ):
            _, entry = self._entries.popitem(last=False)
            self._forget_bytes(entry)
            self._count(EVICTIONS)

    # -- invalidation --------------------------------------------------

    def invalidate_all(self) -> None:
        """Drop every entry (conservative paths: blank-node datasets,
        oversized deltas, lazy-closure writes, recovery)."""
        if self._entries:
            self._count(INVALIDATIONS, len(self._entries))
        self._entries.clear()
        self._by_query.clear()
        self._bytes = 0

    def invalidate_delta(
        self,
        rows: Iterable[Tuple[int, int, int]],
        resolve: Callable[[Term], Optional[int]],
        version: int,
    ) -> None:
        """Exact DRed-delta invalidation (ground datasets).

        *rows* are the net closure-row changes of one flushed delta
        (interned, already skolem-free for a ground dataset); entries
        whose body patterns overlap any of them are dropped, all
        survivors advance to the post-delta *version*.
        """
        rows = list(rows)
        if not rows:
            for entry in self._entries.values():
                entry.version = version
            return
        if len(rows) > _MAX_SELECTIVE_ROWS:
            self.invalidate_all()
            return
        memo: Dict[Term, Optional[int]] = {}
        dead_bodies = [
            body
            for body, entry in self._entries.items()
            if _overlaps(entry.patterns, rows, resolve, memo)
        ]
        for body in dead_bodies:
            self._drop_entry(body)
        if dead_bodies:
            self._count(INVALIDATIONS, len(dead_bodies))
        for entry in self._entries.values():
            entry.version = version
