"""Property tests for the dictionary-encoding layer (repro.core.interning).

Encoding must be *observationally invisible*: whatever runs over
``(int, int, int)`` rows has to decode to exactly the term-level
result.  Hypothesis drives random graphs — including the wild class
with reserved vocabulary in subject/object positions and literal
objects — through every encode/compute/decode boundary.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BNode, Literal, RDFGraph, Triple, URI, find_map
from repro.core.homomorphism import iter_assignments, iter_assignments_naive
from repro.core.interning import (
    BNODE_BASE,
    LITERAL_BASE,
    SKOLEM_PREFIX,
    VOCAB_SIZE,
    EncodedGraph,
    TermDict,
    is_bnode_id,
    is_literal_id,
    is_uri_id,
    is_vocab_id,
)
from repro.core.terms import Variable, sort_key
from repro.core.vocabulary import DOM, RANGE, SC, SP, TYPE
from repro.semantics import closure as semantic_closure
from repro.semantics.closure import rdfs_closure_by_rules
from repro.store import TripleStore

from .strategies import simple_graphs

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_VOCAB = [SP, SC, TYPE, DOM, RANGE]

#: Term pools that deliberately mix reserved words into subject/object
#: positions and literals into objects — the full RDF triple space.
_SUBJECTS = [URI("a"), URI("b"), URI("p"), BNode("X"), BNode("Y"), SP, SC, TYPE]
_PREDICATES = [URI("p"), URI("q"), URI("a")] + _VOCAB
_OBJECTS = [URI("a"), URI("c"), BNode("Y"), BNode("Z"), Literal("v"), SC, DOM]


def wild_triples():
    return st.builds(
        Triple,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_OBJECTS),
    )


def wild_graphs(max_size: int = 5):
    return st.lists(wild_triples(), min_size=0, max_size=max_size).map(RDFGraph)


def wild_graphs_without_literals(max_size: int = 5):
    """Wild graphs minus literal objects.

    Only the store needs this class.  Its Datalog program still reads
    literal objects on reserved-vocabulary edges differently from the
    rule system (see the two pinned cases in
    :class:`TestStoreAgreement`), so store-vs-closure equality is
    claimed on the literal-free class.  The closure kernels are checked
    against the rule system on the full wild class (``test_columns.py``,
    ``test_partitioned.py``).
    """
    literal_free = st.builds(
        Triple,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from([o for o in _OBJECTS if not isinstance(o, Literal)]),
    )
    return st.lists(literal_free, min_size=0, max_size=max_size).map(RDFGraph)


def all_terms():
    return st.sampled_from(_SUBJECTS + _PREDICATES + _OBJECTS)


class TestTermDict:
    @settings(**COMMON)
    @given(wild_graphs())
    def test_round_trip_identity(self, g):
        d = TermDict()
        for t in g:
            assert d.decode_triple(d.encode_triple(t)) == t
        # Decoding is stable across re-encoding (IDs are append-only).
        for t in g:
            row = d.encode_triple(t)
            assert d.lookup_triple(t) == row
            assert d.decode_triple(row) == t

    @settings(**COMMON)
    @given(st.lists(all_terms(), min_size=1, max_size=10))
    def test_kind_ranges_agree_with_isinstance(self, terms):
        d = TermDict()
        for term in terms:
            i = d.encode(term)
            assert is_uri_id(i) == isinstance(term, URI)
            assert is_bnode_id(i) == isinstance(term, BNode)
            assert is_literal_id(i) == isinstance(term, Literal)
            assert is_vocab_id(i) == (term in _VOCAB)
            assert d.decode(i) == term

    def test_vocabulary_is_pinned(self):
        d = TermDict()
        for expected, keyword in enumerate(_VOCAB):
            assert d.encode(keyword) == expected
        assert len(d) == VOCAB_SIZE

    def test_lookup_never_interns(self):
        d = TermDict()
        before = len(d)
        assert d.lookup(URI("never-seen")) is None
        assert d.lookup_triple(Triple(URI("x"), URI("y"), URI("z"))) is None
        assert len(d) == before

    def test_variables_are_rejected(self):
        d = TermDict()
        try:
            d.encode(Variable("v"))
        except TypeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected TypeError for a Variable")

    @settings(**COMMON)
    @given(st.sets(all_terms(), min_size=1, max_size=12))
    def test_sorted_interning_is_order_isomorphic(self, terms):
        ordered = sorted(terms, key=sort_key)
        d = TermDict.from_sorted_terms(ordered)
        ids = [d.lookup(t) for t in ordered]
        assert all(a < b for a, b in zip(ids, ids[1:]))

    @settings(**COMMON)
    @given(wild_graphs(max_size=4))
    def test_skolemize_round_trip(self, g):
        d = TermDict()
        for t in g:
            row = d.encode_triple(t)
            sk = d.skolemize_row(row)
            # Skolem constants are URIs carrying the blank's label.
            for orig, skol in zip(row, sk):
                assert d.unskolemize_id(skol) == orig
                if is_bnode_id(orig):
                    assert is_uri_id(skol)
                    assert d.decode(skol) == URI(
                        SKOLEM_PREFIX + d.decode(orig).value
                    )
                else:
                    assert skol == orig


class TestEncodedGraph:
    @settings(**COMMON)
    @given(wild_graphs())
    def test_decode_round_trip(self, g):
        enc = EncodedGraph.from_graph(g)
        assert set(enc.decode()) == set(g)
        assert enc.count() == len(g)

    @settings(**COMMON)
    @given(wild_graphs(), all_terms(), all_terms(), all_terms())
    def test_match_agrees_with_graph(self, g, s, p, o):
        enc = EncodedGraph.from_graph(g)
        dec = enc.terms.decode_triple
        for pattern in [
            (None, None, None),
            (s, None, None),
            (None, p, None),
            (None, None, o),
            (s, p, None),
            (None, p, o),
            (s, None, o),
            (s, p, o),
        ]:
            expected = set(g.match(*pattern))
            ids = tuple(
                None if term is None else enc.terms.lookup(term)
                for term in pattern
            )
            if any(t is not None and i is None for t, i in zip(pattern, ids)):
                got = set()  # probe term absent from the graph
            else:
                got = {dec(row) for row in enc.match(*ids)}
            assert got == expected


class TestEncodedPlanner:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(simple_graphs(max_size=4), simple_graphs(max_size=4))
    def test_assignments_agree_with_naive(self, pattern, target):
        fast = list(iter_assignments(list(pattern), target))
        slow = list(iter_assignments_naive(list(pattern), target))
        key = lambda a: sorted((str(k), str(v)) for k, v in a.items())
        assert sorted(map(key, fast)) == sorted(map(key, slow))

    @settings(**COMMON)
    @given(simple_graphs(max_size=5))
    def test_identity_map_found(self, g):
        assert find_map(g, g) is not None

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(simple_graphs(max_size=4), simple_graphs(max_size=3))
    def test_simple_entailment_agrees_with_naive(self, g1, g2):
        from repro.semantics import simple_entails

        naive = next(iter_assignments_naive(list(g2), g1), None)
        assert simple_entails(g1, g2) == (naive is not None)

    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(simple_graphs(max_size=4))
    def test_core_is_lean_retract(self, g):
        from repro.minimize import core, is_lean

        c = core(g)
        assert set(c) <= set(g)
        assert is_lean(c)
        assert find_map(g, c) is not None


class TestStoreAgreement:
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(wild_graphs_without_literals(max_size=4))
    def test_store_closure_matches_semantic_closure(self, g):
        store = TripleStore()
        store.add_all(g)
        assert store.closure() == semantic_closure(RDFGraph(store.dataset().triples))

    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(wild_graphs(max_size=4), wild_triples())
    def test_store_entails_matches_closure_membership(self, g, t):
        store = TripleStore()
        store.add_all(g)
        if not t.bnodes():
            assert store.entails(t) == (t in set(store.closure()))

    # The store materializes through its Datalog program, which compiles
    # rules (11)/(13) per conclusion and derives from ill-formed
    # intermediates, so it diverges from the rule system on these two.
    _STORE_DIVERGES = pytest.mark.xfail(
        strict=True,
        reason="store closure reads literal objects unlike the rule "
        "system until ROADMAP item 12's maintenance, cross-checked "
        "against the rule engine, replaces the Datalog program",
    )

    @_STORE_DIVERGES
    def test_store_sc_literal_gives_no_reflexive_row(self):
        # The store derives (a sc a) from (a sc "v").
        g = RDFGraph([Triple(URI("a"), SC, Literal("v"))])
        self._assert_store_closes_like_rules(g)

    @_STORE_DIVERGES
    def test_store_range_of_type_skips_literal_instances(self):
        # The store derives (dom type dom) via ("v" type dom).
        g = RDFGraph([
            Triple(TYPE, RANGE, DOM),
            Triple(URI("x"), TYPE, Literal("v")),
        ])
        self._assert_store_closes_like_rules(g)

    @staticmethod
    def _assert_store_closes_like_rules(g):
        store = TripleStore()
        store.add_all(g)
        assert store.closure() == rdfs_closure_by_rules(g)
