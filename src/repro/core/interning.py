"""Dictionary encoding: terms → dense integer IDs, graphs → int tuples.

Every hot loop in the library — the Θ(|G|²) RDFS closure of
Theorem 3.6, the semi-naive Datalog fixpoints behind the store, and the
planner's homomorphism search behind Theorems 2.8–2.10 — ultimately
hashes and compares terms.  Boxed :class:`~repro.core.terms.URI` /
:class:`~repro.core.terms.BNode` objects pay a Python-level ``__eq__``
and a precomputed-but-still-boxed ``__hash__`` on every probe.
Production RDF engines instead *dictionary-encode*: intern each term
once into a dense integer ID and run every join / fixpoint / candidate
intersection over plain int tuples, decoding back to terms only at the
API boundary.  This module supplies that layer:

* :class:`TermDict` — a bidirectional term ↔ int mapping with
  **per-kind ID ranges**, so the frequent structural tests become range
  checks on an int instead of ``isinstance`` calls on an object:

  ====================  =========================================
  kind                  ID range
  ====================  =========================================
  URI                   ``0 … BNODE_BASE - 1``
  BNode                 ``BNODE_BASE … LITERAL_BASE - 1``
  Literal               ``LITERAL_BASE …``
  ====================  =========================================

  A vocabulary-seeded dict (the default) additionally pins the five
  rdfsV keywords to IDs ``0 … 4`` (:data:`SP_ID` … :data:`RANGE_ID`),
  so "is this predicate an rdfsV keyword" is ``id < 5``.

* :class:`EncodedGraph` — an immutable set of ``(int, int, int)`` rows
  with the same six positional indexes as
  :class:`~repro.core.graph.RDFGraph` (SPO/POS/OSP and the three
  pair-keyed variants) plus an ID-space adjacency view
  (:meth:`EncodedGraph.successors`) for the sp/sc transitive-closure
  kernel.

The ID ranges are ordered URI < BNode < Literal, matching the kind
component of :func:`repro.core.terms.sort_key`.  A dict built by
:meth:`TermDict.from_sorted_terms` (no vocabulary seeding, terms
interned in sorted order) is therefore **order-isomorphic**: comparing
two IDs gives the same answer as comparing the terms' sort keys.  The
planner relies on this to keep its deterministic enumeration order
bit-identical to the boxed implementation.

Encoding is an internal representation.  The paper-facing API
(:class:`~repro.core.graph.RDFGraph`, :mod:`repro.semantics`) stays
term-level; kernels decode at the boundary.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Set, Tuple

from ..robustness.guard import current_guard
from .terms import BNode, Literal, Term, Triple, URI
from .vocabulary import DOM, RANGE, SC, SP, TYPE

__all__ = [
    "TermDict",
    "EncodedGraph",
    "Row",
    "BNODE_BASE",
    "LITERAL_BASE",
    "SKOLEM_PREFIX",
    "SP_ID",
    "SC_ID",
    "TYPE_ID",
    "DOM_ID",
    "RANGE_ID",
    "VOCAB_SIZE",
    "is_uri_id",
    "is_bnode_id",
    "is_literal_id",
    "is_vocab_id",
]

#: An encoded triple: three term IDs from one :class:`TermDict`.
Row = Tuple[int, int, int]

# --------------------------------------------------------------------------
# ID-range layout
# --------------------------------------------------------------------------

#: Width of each kind's ID range.  2⁴⁰ IDs per kind is unreachable in
#: practice (a dict would exhaust memory long before), so the ranges
#: never collide and the kind of an ID is recoverable by comparison.
_KIND_SHIFT = 40

#: First blank-node ID; URIs occupy ``0 … BNODE_BASE - 1``.
BNODE_BASE = 1 << _KIND_SHIFT

#: First literal ID; blank nodes occupy ``BNODE_BASE … LITERAL_BASE-1``.
LITERAL_BASE = 2 << _KIND_SHIFT

#: Reserved URI prefix marking skolemized blank nodes (Definition 3.4).
#: Canonical definition; :mod:`repro.core.graph` re-exports it.
SKOLEM_PREFIX = "urn:skolem:"

# The five rdfsV keywords are interned first in a vocabulary-seeded
# dict, pinning them to IDs 0 … 4 in this fixed order.
SP_ID = 0
SC_ID = 1
TYPE_ID = 2
DOM_ID = 3
RANGE_ID = 4

#: Number of pre-seeded vocabulary IDs.
VOCAB_SIZE = 5

_VOCAB_TERMS: Tuple[URI, ...] = (SP, SC, TYPE, DOM, RANGE)


def is_uri_id(i: int) -> bool:
    """True iff *i* encodes a :class:`~repro.core.terms.URI`."""
    return 0 <= i < BNODE_BASE


def is_bnode_id(i: int) -> bool:
    """True iff *i* encodes a :class:`~repro.core.terms.BNode`."""
    return BNODE_BASE <= i < LITERAL_BASE


def is_literal_id(i: int) -> bool:
    """True iff *i* encodes a :class:`~repro.core.terms.Literal`."""
    return i >= LITERAL_BASE


def is_vocab_id(i: int) -> bool:
    """True iff *i* is a pre-seeded rdfsV keyword ID.

    Only meaningful for vocabulary-seeded dicts (the default
    constructor); dicts built by :meth:`TermDict.from_sorted_terms` do
    not pin the keywords.
    """
    return 0 <= i < VOCAB_SIZE


# --------------------------------------------------------------------------
# TermDict
# --------------------------------------------------------------------------


class TermDict:
    """Bidirectional term ↔ dense-int mapping with per-kind ID ranges.

    ``encode`` interns (assigns the next free ID in the term's kind
    range); ``lookup`` probes without interning; ``decode`` is an
    O(1) list index.  The dict also owns the ID-space skolemization
    maps used by :class:`~repro.store.triple_store.TripleStore`
    (Definition 3.4: blank node ↔ reserved skolem URI).

    Encode/decode call tallies are kept as plain int attributes —
    always on, practically free — and surfaced through
    :meth:`stats`; callers flush them into the global obs registry at
    kernel boundaries rather than per call.
    """

    __slots__ = (
        "_ids",
        "_uris",
        "_bnodes",
        "_literals",
        "_skolem_of",
        "_blank_of",
        "encodes",
        "decodes",
    )

    def __init__(self, vocabulary: bool = True):
        #: term → ID for every interned term (all kinds share one map;
        #: term hashes are precomputed so probes are cheap).
        self._ids: Dict[Term, int] = {}
        self._uris: List[URI] = []
        self._bnodes: List[BNode] = []
        self._literals: List[Literal] = []
        #: bnode ID → skolem URI ID, and its inverse.
        self._skolem_of: Dict[int, int] = {}
        self._blank_of: Dict[int, int] = {}
        self.encodes = 0
        self.decodes = 0
        if vocabulary:
            for term in _VOCAB_TERMS:
                self._intern(term)

    @classmethod
    def from_sorted_terms(cls, terms: Iterable[Term]) -> "TermDict":
        """Build an **order-isomorphic** dict over *terms*.

        No vocabulary seeding; the caller passes terms in sorted order
        (:func:`repro.core.terms.sort_key`), so within each kind the
        IDs are assigned in value order and — because the kind bases
        are ordered URI < BNode < Literal like the sort-key kind tags —
        ID comparison agrees with term comparison across the whole
        universe.
        """
        d = cls(vocabulary=False)
        intern = d._intern
        for term in terms:
            intern(term)
        return d

    # -- encoding ----------------------------------------------------------

    def _intern(self, term: Term) -> int:
        ids = self._ids
        i = ids.get(term)
        if i is not None:
            return i
        if isinstance(term, URI):
            pool, base = self._uris, 0
        elif isinstance(term, BNode):
            pool, base = self._bnodes, BNODE_BASE
        elif isinstance(term, Literal):
            pool, base = self._literals, LITERAL_BASE
        else:
            raise TypeError(f"cannot intern {term!r}: not a ground RDF term")
        i = base + len(pool)
        pool.append(term)
        ids[term] = i
        return i

    def encode(self, term: Term) -> int:
        """Return *term*'s ID, interning it on first sight."""
        self.encodes += 1
        i = self._ids.get(term)
        if i is None:
            i = self._intern(term)
        return i

    def lookup(self, term: Term) -> Optional[int]:
        """Return *term*'s ID, or ``None`` if it was never interned."""
        return self._ids.get(term)

    def encode_triple(self, t: Triple) -> Row:
        """Encode all three positions of *t*, interning as needed."""
        self.encodes += 3
        ids, intern = self._ids, self._intern
        s, p, o = t
        si = ids.get(s)
        if si is None:
            si = intern(s)
        pi = ids.get(p)
        if pi is None:
            pi = intern(p)
        oi = ids.get(o)
        if oi is None:
            oi = intern(o)
        return (si, pi, oi)

    def encode_rows(self, triples: Iterable[Triple]) -> List[Row]:
        """Bulk-encode an iterable of triples, interning as needed.

        The batch twin of :meth:`encode_triple` and the encode-side
        mirror of :meth:`decode_rows`: the dict probe and the intern
        fallback are bound to locals once for the whole batch instead
        of being re-looked-up per triple, which is what the closure
        kernels and the streaming loader feed their whole input
        through.
        """
        get = self._ids.get
        intern = self._intern
        out: List[Row] = []
        push = out.append
        count = 0
        for s, p, o in triples:
            count += 1
            si = get(s)
            if si is None:
                si = intern(s)
            pi = get(p)
            if pi is None:
                pi = intern(p)
            oi = get(o)
            if oi is None:
                oi = intern(o)
            push((si, pi, oi))
        self.encodes += 3 * count
        return out

    def lookup_triple(self, t: Triple) -> Optional[Row]:
        """Encode *t* without interning; ``None`` if any term is new."""
        ids = self._ids
        si = ids.get(t[0])
        if si is None:
            return None
        pi = ids.get(t[1])
        if pi is None:
            return None
        oi = ids.get(t[2])
        if oi is None:
            return None
        return (si, pi, oi)

    # -- decoding ----------------------------------------------------------

    def decode(self, i: int) -> Term:
        """Return the term with ID *i* (O(1) list index)."""
        self.decodes += 1
        if i >= LITERAL_BASE:
            return self._literals[i - LITERAL_BASE]
        if i >= BNODE_BASE:
            return self._bnodes[i - BNODE_BASE]
        return self._uris[i]

    def decode_triple(self, row: Row) -> Triple:
        """Decode an encoded row back into a :class:`Triple`."""
        self.decodes += 3
        uris, bnodes, literals = self._uris, self._bnodes, self._literals

        def dec(i: int) -> Term:
            if i >= LITERAL_BASE:
                return literals[i - LITERAL_BASE]
            if i >= BNODE_BASE:
                return bnodes[i - BNODE_BASE]
            return uris[i]

        return Triple(dec(row[0]), dec(row[1]), dec(row[2]))

    def decode_rows(self, rows: "Iterable[Row]") -> List[Triple]:
        """Batch-decode rows into triples with the per-kind branches
        inlined — the arrays kernel's output boundary.

        Equivalent to ``[self.decode_triple(r) for r in rows]`` but
        roughly 3x faster: pool lists are bound locally, the kind
        dispatch is two int comparisons per position, and each
        :class:`Triple` is built through ``tuple.__new__`` (Triple is a
        NamedTuple, so this is just a tagged tuple fill).
        """
        uris, bnodes, literals = self._uris, self._bnodes, self._literals
        new = tuple.__new__
        out: List[Triple] = []
        push = out.append
        count = 0
        for s, p, o in rows:
            count += 1
            push(new(Triple, (
                uris[s] if s < BNODE_BASE
                else bnodes[s - BNODE_BASE] if s < LITERAL_BASE
                else literals[s - LITERAL_BASE],
                uris[p] if p < BNODE_BASE
                else bnodes[p - BNODE_BASE] if p < LITERAL_BASE
                else literals[p - LITERAL_BASE],
                uris[o] if o < BNODE_BASE
                else bnodes[o - BNODE_BASE] if o < LITERAL_BASE
                else literals[o - LITERAL_BASE],
            )))
        self.decodes += 3 * count
        return out

    # -- ID-space skolemization (Definition 3.4) ---------------------------

    def skolem_id(self, bnode_id: int) -> int:
        """ID of the reserved skolem URI for the blank node *bnode_id*."""
        si = self._skolem_of.get(bnode_id)
        if si is None:
            label = self._bnodes[bnode_id - BNODE_BASE].value
            si = self.encode(URI(SKOLEM_PREFIX + label))
            self._skolem_of[bnode_id] = si
            self._blank_of[si] = bnode_id
        return si

    def skolemize_id(self, i: int) -> int:
        """Map blank-node IDs to their skolem URI ID; others unchanged."""
        if BNODE_BASE <= i < LITERAL_BASE:
            return self.skolem_id(i)
        return i

    def unskolemize_id(self, i: int) -> int:
        """Inverse of :meth:`skolemize_id`: skolem URI → blank node."""
        return self._blank_of.get(i, i)

    def skolemize_row(self, row: Row) -> Row:
        s, p, o = row
        if BNODE_BASE <= s < LITERAL_BASE:
            s = self.skolem_id(s)
        if BNODE_BASE <= o < LITERAL_BASE:
            o = self.skolem_id(o)
        return (s, p, o)

    # -- introspection -----------------------------------------------------

    def pool_sizes(self) -> Tuple[int, int, int]:
        """Current (URI, BNode, Literal) pool lengths — a high-water
        mark for :meth:`pool_records_since`."""
        return (len(self._uris), len(self._bnodes), len(self._literals))

    def pool_records_since(
        self, marks: Tuple[int, int, int]
    ) -> List[Tuple[str, str]]:
        """Terms interned since *marks*, as ``(kind, value)`` records.

        The durable backend's string-pool log entries: appending these
        in order (URIs, then BNodes, then Literals) and replaying them
        through :meth:`encode` at open reconstructs the exact same ID
        assignment, because IDs are dense per-kind append positions.
        """
        u, b, l = marks
        out: List[Tuple[str, str]] = []
        out.extend(("U", t.value) for t in self._uris[u:])
        out.extend(("B", t.value) for t in self._bnodes[b:])
        out.extend(("L", t.value) for t in self._literals[l:])
        return out

    def __len__(self) -> int:
        return len(self._uris) + len(self._bnodes) + len(self._literals)

    def __contains__(self, term: object) -> bool:
        return term in self._ids

    def stats(self) -> Dict[str, int]:
        """Size and traffic counters, for ``repro stats`` and obs."""
        return {
            "terms": len(self),
            "uris": len(self._uris),
            "bnodes": len(self._bnodes),
            "literals": len(self._literals),
            "skolems": len(self._skolem_of),
            "encode_calls": self.encodes,
            "decode_calls": self.decodes,
        }

    def __repr__(self) -> str:
        return (
            f"TermDict(terms={len(self)}, uris={len(self._uris)}, "
            f"bnodes={len(self._bnodes)}, literals={len(self._literals)})"
        )


# --------------------------------------------------------------------------
# EncodedGraph
# --------------------------------------------------------------------------

_WILDCARD = None


class EncodedGraph:
    """An RDF graph as a set of ``(int, int, int)`` rows.

    Mirrors the lookup contract of
    :class:`~repro.core.graph.RDFGraph` — six positional indexes, a
    ``match``/``count`` pair keyed by optional positions — but entirely
    in ID space over one :class:`TermDict`.  Instances are treated as
    immutable once built.
    """

    __slots__ = (
        "terms",
        "rows",
        "_by_s",
        "_by_p",
        "_by_o",
        "_by_sp",
        "_by_po",
        "_by_so",
        "_runs",
    )

    def __init__(self, rows: Iterable[Row], terms: TermDict):
        self.terms = terms
        self.rows: FrozenSet[Row] = frozenset(rows)
        guard = current_guard()
        if guard is not None:
            # Building the encoded view of a large target (e.g. a
            # closure) is real pre-search work; charge it as one step
            # per row so a deadline can fire before the search even
            # starts on an adversarially large input.
            guard.tick(len(self.rows))
        by_s: Dict[int, Set[Row]] = {}
        by_p: Dict[int, Set[Row]] = {}
        by_o: Dict[int, Set[Row]] = {}
        by_sp: Dict[Tuple[int, int], Set[Row]] = {}
        by_po: Dict[Tuple[int, int], Set[Row]] = {}
        by_so: Dict[Tuple[int, int], Set[Row]] = {}
        for row in self.rows:
            s, p, o = row
            by_s.setdefault(s, set()).add(row)
            by_p.setdefault(p, set()).add(row)
            by_o.setdefault(o, set()).add(row)
            by_sp.setdefault((s, p), set()).add(row)
            by_po.setdefault((p, o), set()).add(row)
            by_so.setdefault((s, o), set()).add(row)
        self._by_s = by_s
        self._by_p = by_p
        self._by_o = by_o
        self._by_sp = by_sp
        self._by_po = by_po
        self._by_so = by_so
        self._runs = None

    @classmethod
    def from_graph(cls, graph: "Iterable[Triple]") -> "EncodedGraph":
        """Encode a term-level graph with an **order-isomorphic** dict.

        The universe is interned in sorted order so that ID comparisons
        reproduce term sort-key comparisons exactly (see module
        docstring); the planner's enumeration order is therefore
        identical to the boxed implementation's.
        """
        triples = list(graph)
        universe: Set[Term] = set()
        for s, p, o in triples:
            universe.add(s)
            universe.add(p)
            universe.add(o)
        from .terms import sort_key

        terms = TermDict.from_sorted_terms(sorted(universe, key=sort_key))
        ids = terms._ids
        terms.encodes += 3 * len(triples)
        return cls(((ids[s], ids[p], ids[o]) for s, p, o in triples), terms)

    # -- lookups -----------------------------------------------------------

    def __len__(self) -> int:
        return len(self.rows)

    def __contains__(self, row: object) -> bool:
        return row in self.rows

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def match(
        self,
        s: Optional[int] = _WILDCARD,
        p: Optional[int] = _WILDCARD,
        o: Optional[int] = _WILDCARD,
    ) -> Set[Row]:
        """Rows matching the given positions (``None`` = wildcard)."""
        if s is not None:
            if p is not None:
                if o is not None:
                    row = (s, p, o)
                    return {row} if row in self.rows else set()
                return self._by_sp.get((s, p), _EMPTY)
            if o is not None:
                return self._by_so.get((s, o), _EMPTY)
            return self._by_s.get(s, _EMPTY)
        if p is not None:
            if o is not None:
                return self._by_po.get((p, o), _EMPTY)
            return self._by_p.get(p, _EMPTY)
        if o is not None:
            return self._by_o.get(o, _EMPTY)
        return set(self.rows)

    def count(
        self,
        s: Optional[int] = _WILDCARD,
        p: Optional[int] = _WILDCARD,
        o: Optional[int] = _WILDCARD,
    ) -> int:
        """``len(self.match(s, p, o))`` without building a new set."""
        return len(self.match(s, p, o))

    def runs(self):
        """The graph's sorted-run columnar view, built once on demand.

        A :class:`~repro.core.columns.SortedRuns` over the same rows;
        the planner's candidate-domain construction reads contiguous
        ranges from it instead of materializing per-pattern row sets.
        """
        runs = self._runs
        if runs is None:
            from .columns import SortedRuns

            runs = SortedRuns(sorted(self.rows))
            self._runs = runs
        return runs

    # -- adjacency view for transitive-closure kernels ---------------------

    def successors(self, p: int) -> Dict[int, Set[int]]:
        """ID-space adjacency of predicate *p*: subject → {objects}.

        The sp/sc transitive-closure kernel in
        :mod:`repro.semantics.closure` walks this view instead of
        re-probing triple indexes on every hop.
        """
        adj: Dict[int, Set[int]] = {}
        for s, _, o in self._by_p.get(p, _EMPTY):
            adj.setdefault(s, set()).add(o)
        return adj

    def subjects(self) -> Set[int]:
        return set(self._by_s)

    def predicates(self) -> Set[int]:
        return set(self._by_p)

    def objects(self) -> Set[int]:
        return set(self._by_o)

    def decode(self) -> List[Triple]:
        """Decode every row (boundary use only — O(|G|) allocations)."""
        dt = self.terms.decode_triple
        return [dt(row) for row in self.rows]

    def __repr__(self) -> str:
        return f"EncodedGraph(rows={len(self.rows)}, dict={len(self.terms)})"


#: Shared immutable empty set returned by missed index probes.
_EMPTY: FrozenSet[Row] = frozenset()
