"""RDF graphs: sets of triples with the operations of Section 2.1.

An :class:`RDFGraph` is an immutable set of :class:`~repro.core.terms.Triple`
values together with per-position indexes that make homomorphism search,
closure computation and query matching efficient.  The class implements
the whole vocabulary of Section 2.1:

* ``universe(G)`` — all elements of ``U ∪ B`` occurring in triples;
* ``voc(G)`` — ``universe(G) ∩ U``;
* ground test, simple test (Definition 2.2);
* union ``G1 ∪ G2`` and merge ``G1 + G2`` (blank-renaming union);
* Skolemization ``G*`` and unskolemization ``H_*`` (Section 3.1);
* blank-node-induced cycle detection (Section 2.4).
"""

from __future__ import annotations

from itertools import chain
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, Optional, Set, Tuple

from .interning import EncodedGraph, SKOLEM_PREFIX, TermDict
from .terms import (
    BNode,
    Literal,
    Term,
    Triple,
    URI,
    Variable,
    fresh_bnode_factory,
    sort_key,
)
from .vocabulary import RDFS_VOCABULARY

__all__ = ["RDFGraph", "triple", "graph_from_triples", "SKOLEM_PREFIX"]


def triple(s, p, o) -> Triple:
    """Build a triple, coercing raw strings for convenience.

    Strings become URIs; use explicit :class:`BNode` / :class:`Literal` /
    :class:`Variable` instances for the other kinds.
    """

    def coerce(t):
        if isinstance(t, str):
            return URI(t)
        return t

    return Triple(coerce(s), coerce(p), coerce(o))


class RDFGraph:
    """An RDF graph: a finite set of RDF triples (Definition 2.1).

    Instances are immutable; all "mutating" operations return new graphs.
    Equality is set equality of triples (syntactic identity), *not*
    logical equivalence — use :func:`repro.semantics.entailment.equivalent`
    for the latter and :func:`repro.core.isomorphism.isomorphic` for
    equality up to blank renaming.
    """

    __slots__ = (
        "_triples",
        "_by_predicate",
        "_by_subject",
        "_by_object",
        "_by_sp",
        "_by_po",
        "_by_so",
        "_universe",
        "_bnodes",
        "_hash",
        "_encoded",
        "_closure",
        "_lazy_from",
    )

    def __init__(self, triples: Iterable[Triple] = ()):
        items = []
        for t in triples:
            if not isinstance(t, Triple):
                t = Triple(*t)
            if not t.is_valid_rdf():
                raise ValueError(f"not a well-formed RDF triple: {t}")
            items.append(t)
        self._triples: FrozenSet[Triple] = frozenset(items)
        # The object-keyed and (s, o)-keyed indexes are consulted far
        # less often than the other four (o-only and s+o lookups are
        # rare pattern shapes), yet the closure/minimize code creates
        # many short-lived intermediate graphs.  Build them lazily on
        # first access instead of paying two more passes here.
        self._by_object: Optional[Dict[Term, Set[Triple]]] = None
        self._by_so: Optional[Dict[Tuple[Term, Term], Set[Triple]]] = None
        #: Lazily built dictionary-encoded view (see :meth:`encoded`).
        self._encoded: Optional[EncodedGraph] = None
        #: Adopted ``cl(G)`` (see :meth:`_adopt_closure`).
        self._closure: Optional[RDFGraph] = None
        #: Built on first use (see :meth:`_build_terms`).
        self._universe: Optional[FrozenSet[Term]] = None
        self._bnodes: Optional[FrozenSet[BNode]] = None
        #: Identity of the row set every derived cache was built from.
        #: Instances are immutable by contract, but if ``_triples`` is
        #: ever rebound in place, accessors notice the mismatch and
        #: rebuild instead of serving stale indexes.
        self._lazy_from: FrozenSet[Triple] = self._triples
        self._build_core()
        self._hash: Optional[int] = hash(self._triples)

    @classmethod
    def _from_trusted(cls, triples: Iterable[Triple]) -> "RDFGraph":
        """Internal: build from known-valid triples, deferring all caches.

        Kernels whose output rows are valid RDF by construction (the
        arrays closure kernel decodes interned rows that were range-
        checked on emission) skip per-triple validation here, and every
        index — including the four the public constructor builds
        eagerly — is materialized lazily on first access.  A closure
        result that goes straight to iteration or set comparison never
        pays for indexes it does not use.
        """
        g = object.__new__(cls)
        g._triples = frozenset(triples)
        g._by_subject = None
        g._by_predicate = None
        g._by_sp = None
        g._by_po = None
        g._by_object = None
        g._by_so = None
        g._encoded = None
        g._closure = None
        g._universe = None
        g._bnodes = None
        g._hash = None
        g._lazy_from = g._triples
        return g

    # -- derived-cache maintenance --------------------------------------

    def _invalidate_stale(self) -> None:
        """Drop every cache built from a row set other than ``_triples``.

        The mutation guard behind all lazy builds: each accessor calls
        this before trusting a cached structure, so an in-place rebind
        of ``_triples`` (immutability violation or internal surgery)
        yields rebuilt indexes rather than silently stale answers.
        """
        if self._lazy_from is not self._triples:
            self._by_subject = None
            self._by_predicate = None
            self._by_sp = None
            self._by_po = None
            self._by_object = None
            self._by_so = None
            self._encoded = None
            self._closure = None
            self._universe = None
            self._bnodes = None
            self._hash = None
            self._lazy_from = self._triples

    def _build_core(self) -> None:
        by_subject: Dict[Term, Set[Triple]] = {}
        by_predicate: Dict[Term, Set[Triple]] = {}
        by_sp: Dict[Tuple[Term, Term], Set[Triple]] = {}
        by_po: Dict[Tuple[Term, Term], Set[Triple]] = {}
        for t in self._triples:
            by_subject.setdefault(t.s, set()).add(t)
            by_predicate.setdefault(t.p, set()).add(t)
            by_sp.setdefault((t.s, t.p), set()).add(t)
            by_po.setdefault((t.p, t.o), set()).add(t)
        self._by_subject = by_subject
        self._by_predicate = by_predicate
        self._by_sp = by_sp
        self._by_po = by_po

    def _build_terms(self) -> None:
        """``universe``/``bnodes`` in one pass, without building indexes.

        The planner reads a graph only through :meth:`encoded`, which
        needs the universe but none of the term-level indexes, so a
        lazily built graph (every arrays-kernel closure) must not pay
        for :meth:`_build_core` just to list its terms.
        """
        self._invalidate_stale()
        universe = frozenset(chain.from_iterable(self._triples))
        self._universe = universe
        self._bnodes = frozenset(t for t in universe if isinstance(t, BNode))

    def _core_indexes(self):
        """The four eager-by-default indexes, built/refreshed on demand."""
        if self._by_subject is None or self._lazy_from is not self._triples:
            self._invalidate_stale()
            self._build_core()
        return self._by_subject, self._by_predicate, self._by_sp, self._by_po

    def _object_index(self) -> Dict[Term, Set[Triple]]:
        idx = self._by_object
        if idx is None or self._lazy_from is not self._triples:
            self._invalidate_stale()
            idx = {}
            for t in self._triples:
                idx.setdefault(t.o, set()).add(t)
            self._by_object = idx
        return idx

    def _so_index(self) -> Dict[Tuple[Term, Term], Set[Triple]]:
        idx = self._by_so
        if idx is None or self._lazy_from is not self._triples:
            self._invalidate_stale()
            idx = {}
            for t in self._triples:
                idx.setdefault((t.s, t.o), set()).add(t)
            self._by_so = idx
        return idx

    def encoded(self) -> EncodedGraph:
        """The graph's dictionary-encoded view, built once on demand.

        The :class:`~repro.core.interning.TermDict` is private to this
        graph and **order-isomorphic** (terms interned in sorted order),
        so ID comparisons agree with term sort-key comparisons — the
        planner depends on that to keep its deterministic enumeration
        order identical to the term-level implementation.
        """
        self._invalidate_stale()
        enc = self._encoded
        if enc is None:
            terms = TermDict.from_sorted_terms(
                sorted(self.universe(), key=sort_key)
            )
            ids = terms._ids
            terms.encodes += 3 * len(self._triples)
            enc = EncodedGraph(
                ((ids[t[0]], ids[t[1]], ids[t[2]]) for t in self._triples),
                terms,
            )
            self._encoded = enc
        return enc

    def _cached_closure(self) -> Optional["RDFGraph"]:
        """The attached ``cl(G)``, or None when none has been adopted."""
        self._invalidate_stale()
        return self._closure

    def _adopt_closure(self, closed: "RDFGraph") -> None:
        """Attach *closed* as this graph's ``cl(G)``.

        A derived cache like :meth:`encoded`: the graph is immutable, so
        its closure never changes.  The store's dataset snapshot adopts
        the closure the store already maintains, and
        :func:`repro.semantics.closure.closure` returns it instead of
        closing again.  The mutation guard drops it together with every
        other cache.
        """
        self._invalidate_stale()
        self._closure = closed

    # ------------------------------------------------------------------
    # Set-like protocol
    # ------------------------------------------------------------------

    @property
    def triples(self) -> FrozenSet[Triple]:
        """The underlying frozenset of triples."""
        return self._triples

    def __len__(self) -> int:
        return len(self._triples)

    def __iter__(self) -> Iterator[Triple]:
        return iter(self._triples)

    def __contains__(self, t) -> bool:
        if not isinstance(t, Triple):
            t = Triple(*t)
        return t in self._triples

    def __eq__(self, other) -> bool:
        if isinstance(other, RDFGraph):
            return self._triples == other._triples
        if isinstance(other, (set, frozenset)):
            return self._triples == other
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash(self._triples)
        return h

    def __le__(self, other: "RDFGraph") -> bool:
        return self._triples <= other._triples

    def __lt__(self, other: "RDFGraph") -> bool:
        return self._triples < other._triples

    def __ge__(self, other: "RDFGraph") -> bool:
        return self._triples >= other._triples

    def __gt__(self, other: "RDFGraph") -> bool:
        return self._triples > other._triples

    def issubgraph(self, other: "RDFGraph") -> bool:
        """True iff this graph is a subgraph (subset) of *other*."""
        return self._triples <= other._triples

    def __or__(self, other: "RDFGraph") -> "RDFGraph":
        return self.union(other)

    def __add__(self, other: "RDFGraph") -> "RDFGraph":
        return self.merge(other)

    def __sub__(self, other) -> "RDFGraph":
        other_triples = other.triples if isinstance(other, RDFGraph) else frozenset(other)
        return RDFGraph(self._triples - other_triples)

    def __bool__(self) -> bool:
        return bool(self._triples)

    def __repr__(self) -> str:
        return f"RDFGraph({len(self._triples)} triples)"

    def __str__(self) -> str:
        body = ", ".join(str(t) for t in self.sorted_triples())
        return "{" + body + "}"

    def sorted_triples(self):
        """Triples in a deterministic order (for display and hashing)."""
        return sorted(
            self._triples, key=lambda t: (sort_key(t.s), sort_key(t.p), sort_key(t.o))
        )

    # ------------------------------------------------------------------
    # Section 2.1 notions
    # ------------------------------------------------------------------

    def universe(self) -> FrozenSet[Term]:
        """``universe(G)``: the elements of ``UB`` occurring in triples."""
        if self._universe is None or self._lazy_from is not self._triples:
            self._build_terms()
        return self._universe

    def voc(self) -> FrozenSet[URI]:
        """``voc(G) = universe(G) ∩ U``: the URIs occurring in G."""
        return frozenset(t for t in self.universe() if isinstance(t, URI))

    def bnodes(self) -> FrozenSet[BNode]:
        """The blank nodes occurring in G."""
        if self._bnodes is None or self._lazy_from is not self._triples:
            self._build_terms()
        return self._bnodes

    def is_ground(self) -> bool:
        """True iff G mentions no blank nodes."""
        return not self.bnodes()

    def is_simple(self) -> bool:
        """True iff G mentions no RDFS vocabulary (Definition 2.2)."""
        return not (RDFS_VOCABULARY & self.voc())

    def predicates(self) -> FrozenSet[Term]:
        """The terms occurring in predicate position."""
        return frozenset(self._core_indexes()[1])

    def subjects(self) -> FrozenSet[Term]:
        """The terms occurring in subject position."""
        return frozenset(self._core_indexes()[0])

    def objects(self) -> FrozenSet[Term]:
        """The terms occurring in object position."""
        return frozenset(self._object_index())

    def union(self, other: "RDFGraph") -> "RDFGraph":
        """``G1 ∪ G2``: set-theoretic union, blank nodes shared."""
        return RDFGraph(self._triples | other._triples)

    def merge(self, other: "RDFGraph") -> "RDFGraph":
        """``G1 + G2``: union after renaming *other*'s blanks apart.

        Per Section 2.1 the merge is unique up to isomorphism; this
        implementation renames deterministically, keeping labels that do
        not clash.
        """
        clashes = self.bnodes() & other.bnodes()
        if not clashes:
            return self.union(other)
        fresh = fresh_bnode_factory(self.bnodes() | other.bnodes())
        renaming = {n: fresh() for n in sorted(clashes, key=sort_key)}
        return self.union(other.rename_bnodes(renaming))

    def rename_bnodes(self, renaming: Dict[BNode, BNode]) -> "RDFGraph":
        """Apply a blank-node renaming (must be injective to preserve ≅)."""

        def rn(term):
            return renaming.get(term, term) if isinstance(term, BNode) else term

        return RDFGraph(Triple(rn(t.s), rn(t.p), rn(t.o)) for t in self._triples)

    # ------------------------------------------------------------------
    # Pattern access (used by the homomorphism solver and rule engine)
    # ------------------------------------------------------------------

    def match(
        self,
        s: Optional[Term] = None,
        p: Optional[Term] = None,
        o: Optional[Term] = None,
    ) -> Iterable[Triple]:
        """Triples matching the given fixed positions (None = wildcard).

        This is the graph's only lookup primitive; the solver composes
        everything else from it.  Lookups use the most selective
        available index.
        """
        if s is not None and p is not None and o is not None:
            t = Triple(s, p, o)
            return (t,) if t in self._triples else ()
        if s is not None and p is not None:
            return self._core_indexes()[2].get((s, p), ())
        if p is not None and o is not None:
            return self._core_indexes()[3].get((p, o), ())
        if s is not None and o is not None:
            return self._so_index().get((s, o), ())
        if s is not None:
            return self._core_indexes()[0].get(s, ())
        if p is not None:
            return self._core_indexes()[1].get(p, ())
        if o is not None:
            return self._object_index().get(o, ())
        return self._triples

    def count(self, s=None, p=None, o=None) -> int:
        """Number of triples matching the given fixed positions.

        Reads the size of the selected index bucket directly instead of
        materializing the matching triples first.
        """
        if s is not None and p is not None and o is not None:
            return 1 if Triple(s, p, o) in self._triples else 0
        if s is not None and p is not None:
            return len(self._core_indexes()[2].get((s, p), ()))
        if p is not None and o is not None:
            return len(self._core_indexes()[3].get((p, o), ()))
        if s is not None and o is not None:
            return len(self._so_index().get((s, o), ()))
        if s is not None:
            return len(self._core_indexes()[0].get(s, ()))
        if p is not None:
            return len(self._core_indexes()[1].get(p, ()))
        if o is not None:
            return len(self._object_index().get(o, ()))
        return len(self._triples)

    # ------------------------------------------------------------------
    # Skolemization (Section 3.1)
    # ------------------------------------------------------------------

    def skolemize(self) -> Tuple["RDFGraph", Dict[URI, BNode]]:
        """Return ``(G*, inverse)``: blanks replaced by fresh constants.

        ``G*`` replaces each blank ``X`` by the Skolem constant ``c_X``
        (a URI with the reserved :data:`SKOLEM_PREFIX`); *inverse* maps
        each Skolem constant back to its blank, for
        :meth:`unskolemize`.
        """
        forward: Dict[BNode, URI] = {
            n: URI(SKOLEM_PREFIX + n.value) for n in self.bnodes()
        }
        inverse = {u: n for n, u in forward.items()}

        def sk(term):
            return forward.get(term, term) if isinstance(term, BNode) else term

        graph = RDFGraph(Triple(sk(t.s), sk(t.p), sk(t.o)) for t in self._triples)
        return graph, inverse

    @staticmethod
    def unskolemize(graph: "RDFGraph", inverse: Dict[URI, BNode]) -> "RDFGraph":
        """``H_*``: replace Skolem constants by their blanks.

        Triples whose predicate position would become a blank node are
        dropped, exactly as Section 3.1 prescribes ("deleting triples
        having blanks as predicates").
        """

        def unsk(term):
            return inverse.get(term, term) if isinstance(term, URI) else term

        result = []
        for t in graph:
            candidate = Triple(unsk(t.s), unsk(t.p), unsk(t.o))
            if candidate.is_valid_rdf():
                result.append(candidate)
        return RDFGraph(result)

    # ------------------------------------------------------------------
    # Blank-node-induced cycles (Section 2.4)
    # ------------------------------------------------------------------

    def has_blank_cycle(self) -> bool:
        """True iff G has a cycle induced by blank nodes (Section 2.4).

        A blank-induced cycle is a sequence ``x1, ..., xn = x1`` of
        universe elements, each consecutive pair linked by a triple in
        either direction, with every element on the cycle a blank node.
        Simple graphs without such cycles correspond to acyclic
        conjunctive queries and admit polynomial entailment testing.

        Following the conjunctive-query reading (blank nodes are the
        variables, the paper's stated motivation), two blanks co-occurring
        in more than one triple — or twice in one triple — also count as
        a (length-2) cycle, since the corresponding query hypergraph is
        cyclic.
        """
        # Build the adjacency among blank nodes only: an edge whenever
        # some triple links two blanks (in either subject/object role).
        adjacency: Dict[BNode, Set[BNode]] = {n: set() for n in self.bnodes()}
        edge_multiplicity: Dict[Tuple[BNode, BNode], int] = {}
        for t in self._triples:
            if isinstance(t.s, BNode) and isinstance(t.o, BNode):
                if t.s == t.o:
                    return True  # self-loop on a blank: length-1 cycle
                adjacency[t.s].add(t.o)
                adjacency[t.o].add(t.s)
                key = (min(t.s, t.o), max(t.s, t.o))
                edge_multiplicity[key] = edge_multiplicity.get(key, 0) + 1
        if any(m > 1 for m in edge_multiplicity.values()):
            return True  # two parallel triples between the same blanks
        # Undirected cycle detection among blanks via DFS.
        visited: Set[BNode] = set()
        for start in self.bnodes():
            if start in visited:
                continue
            stack = [(start, None)]
            parents: Dict[BNode, Optional[BNode]] = {start: None}
            while stack:
                node, parent = stack.pop()
                if node in visited:
                    continue
                visited.add(node)
                for neighbour in adjacency[node]:
                    if neighbour == parent:
                        continue
                    if neighbour in parents and neighbour in visited:
                        return True
                    if neighbour not in parents:
                        parents[neighbour] = node
                    stack.append((neighbour, node))
        return False

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def from_tuples(cls, tuples: Iterable[Tuple]) -> "RDFGraph":
        """Build a graph from raw (s, p, o) tuples, coercing strings to URIs."""
        return cls(triple(*t) for t in tuples)

    def map_terms(self, fn: Callable[[Term], Term]) -> "RDFGraph":
        """Apply *fn* to every term position; drops ill-formed results."""
        result = []
        for t in self._triples:
            candidate = Triple(fn(t.s), fn(t.p), fn(t.o))
            if candidate.is_valid_rdf():
                result.append(candidate)
        return RDFGraph(result)


def graph_from_triples(*tuples) -> RDFGraph:
    """Shorthand: ``graph_from_triples((s,p,o), ...)`` with string coercion."""
    return RDFGraph.from_tuples(tuples)
