"""Tests for entailment (Theorems 2.8, 2.9, 2.10 and the CQ bridge)."""

import pytest
from hypothesis import given, settings

from repro.core import BNode, RDFGraph, URI, find_map, triple
from repro.core.vocabulary import DOM, RANGE, SC, SP, TYPE
from repro.generators import art_schema
from repro.reductions import DiGraph, encode_graph, homomorphic_direct
from repro.relational import simple_entails_acyclic, simple_entails_via_cq
from repro.semantics import (
    closure,
    entailment_witness,
    entails,
    entails_by_model,
    equivalent,
    rdfs_closure_by_rules,
    simple_entails,
    simple_equivalent,
)

from .strategies import rdfs_graphs, simple_graphs


class TestSimpleEntailment:
    def test_subgraph_entailed(self):
        g = RDFGraph([triple("a", "p", "b"), triple("b", "q", "c")])
        assert simple_entails(g, RDFGraph([triple("a", "p", "b")]))

    def test_blank_generalization_entailed(self):
        g = RDFGraph([triple("a", "p", "b")])
        h = RDFGraph([triple("a", "p", BNode("X"))])
        assert simple_entails(g, h)
        assert not simple_entails(h, g)  # the blank does not name b

    def test_blank_join_requires_common_node(self):
        X = BNode("X")
        h = RDFGraph([triple("a", "p", X), triple(X, "q", "c")])
        g_joined = RDFGraph([triple("a", "p", "b"), triple("b", "q", "c")])
        g_split = RDFGraph([triple("a", "p", "b"), triple("d", "q", "c")])
        assert simple_entails(g_joined, h)
        assert not simple_entails(g_split, h)

    def test_empty_graph_entailed_by_all(self):
        assert simple_entails(RDFGraph(), RDFGraph())
        assert simple_entails(RDFGraph([triple("a", "p", "b")]), RDFGraph())

    def test_reflexive(self):
        g = RDFGraph([triple("a", "p", BNode("X"))])
        assert simple_entails(g, g)

    def test_transitive(self):
        g1 = RDFGraph([triple("a", "p", "b")])
        g2 = RDFGraph([triple("a", "p", BNode("X"))])
        g3 = RDFGraph([triple(BNode("Y"), "p", BNode("X"))])
        assert simple_entails(g1, g2) and simple_entails(g2, g3)
        assert simple_entails(g1, g3)

    @settings(max_examples=50, deadline=None)
    @given(simple_graphs(max_size=4), simple_graphs(max_size=3))
    def test_matches_cq_evaluation(self, g1, g2):
        assert simple_entails(g1, g2) == simple_entails_via_cq(g1, g2)

    @settings(max_examples=50, deadline=None)
    @given(simple_graphs(max_size=4), simple_graphs(max_size=3))
    def test_matches_acyclic_pipeline_when_applicable(self, g1, g2):
        try:
            fast = simple_entails_acyclic(g1, g2)
        except ValueError:
            return  # cyclic: out of the special case's scope
        assert fast == simple_entails(g1, g2)


class TestRDFSEntailment:
    def test_subclass_typing(self, fig1):
        assert entails(fig1, RDFGraph([triple("Picasso", TYPE, "artist")]))
        assert entails(fig1, RDFGraph([triple("Guernica", TYPE, "artifact")]))
        assert entails(fig1, RDFGraph([triple("Picasso", "creates", "Guernica")]))

    def test_non_entailments(self, fig1):
        assert not entails(fig1, RDFGraph([triple("Picasso", TYPE, "sculptor")]))
        assert not entails(fig1, RDFGraph([triple("Guernica", TYPE, "sculpture")]))

    def test_blank_in_conclusion(self, fig1):
        X = BNode("X")
        # "someone paints something of type painting"
        h = RDFGraph([triple(X, "paints", BNode("Y")), triple(BNode("Y"), TYPE, "painting")])
        assert entails(fig1, h)

    def test_theorem_2_8_map_into_closure(self, fig1):
        h = RDFGraph([triple("Picasso", TYPE, "artist")])
        witness = entailment_witness(fig1, h)
        assert witness is not None
        assert witness.apply_graph(h).issubgraph(closure(fig1))

    def test_rdfs_entailment_not_simple(self):
        g = RDFGraph([triple("a", SC, "b"), triple("x", TYPE, "a")])
        h = RDFGraph([triple("x", TYPE, "b")])
        assert entails(g, h)
        assert not simple_entails(g, h)

    def test_equivalence(self):
        g = RDFGraph([triple("a", SC, "b"), triple("b", SC, "c")])
        h = g.union(RDFGraph([triple("a", SC, "c")]))
        assert equivalent(g, h)
        assert not equivalent(g, RDFGraph([triple("a", SC, "c")]))

    def test_reserved_sp_axioms_always_entailed(self):
        assert entails(RDFGraph(), RDFGraph([triple(SP, SP, SP)]))
        assert entails(RDFGraph(), RDFGraph([triple(TYPE, SP, TYPE)]))

    @settings(max_examples=30, deadline=None)
    @given(rdfs_graphs(max_size=4), rdfs_graphs(max_size=2))
    def test_matches_model_theory(self, g1, g2):
        assert entails(g1, g2) == entails_by_model(g1, g2)

    @settings(max_examples=30, deadline=None)
    @given(rdfs_graphs(max_size=4))
    def test_reflexivity(self, g):
        assert entails(g, g)

    @settings(max_examples=30, deadline=None)
    @given(rdfs_graphs(max_size=3), rdfs_graphs(max_size=3))
    def test_union_entails_both(self, g1, g2):
        u = g1.union(g2)
        assert entails(u, g1)
        assert entails(u, g2)


class TestFolkloreEncodings:
    """Theorem 2.9's reduction: hom(H, H') ⟺ enc(H') ⊨ enc(H)."""

    def test_odd_cycle_into_even(self):
        c3, c4 = DiGraph.cycle(3), DiGraph.cycle(4)
        assert not simple_entails(encode_graph(c4), encode_graph(c3))
        assert homomorphic_direct(c3, c4) is False

    def test_even_cycle_into_k2(self):
        c4 = DiGraph.cycle(4)
        k2 = DiGraph.complete(2)
        assert simple_entails(encode_graph(k2), encode_graph(c4))

    def test_random_graphs_match_direct_hom(self):
        from repro.generators import random_digraph

        for seed in range(8):
            h1 = random_digraph(4, 5, seed=seed)
            h2 = random_digraph(4, 6, seed=seed + 100)
            via_rdf = simple_entails(encode_graph(h2), encode_graph(h1))
            assert via_rdf == homomorphic_direct(h1, h2)

    def test_homomorphic_equivalence_matches(self):
        from repro.reductions import homomorphically_equivalent_via_rdf

        c6 = DiGraph.cycle(6)
        k2 = DiGraph.complete(2)
        assert homomorphically_equivalent_via_rdf(c6, k2)
        c5 = DiGraph.cycle(5)
        assert not homomorphically_equivalent_via_rdf(c5, k2)


class TestAdoptedClosure:
    """``closure(G)`` serves a ``cl(G)`` attached to the graph, and
    attaches none of its own."""

    @staticmethod
    def _graph():
        return RDFGraph(
            list(art_schema()) + [triple(BNode("X"), "paints", "Guernica")]
        )

    def test_closure_records_nothing(self):
        from repro.semantics.closure import KERNEL_DISPATCH

        g = self._graph()
        first = closure(g)
        assert g._cached_closure() is None
        dispatched = sum(KERNEL_DISPATCH.values())
        assert closure(g) == first
        assert sum(KERNEL_DISPATCH.values()) == dispatched + 1  # closed again
        assert first == rdfs_closure_by_rules(g)

    def test_adopted_closure_is_served(self):
        from repro.semantics.closure import KERNEL_DISPATCH

        g = self._graph()
        closed = rdfs_closure_by_rules(g)
        g._adopt_closure(closed)
        dispatched = sum(KERNEL_DISPATCH.values())
        assert closure(g) is closed
        assert entails(g, RDFGraph([triple(BNode("Y"), TYPE, "painter")]))
        assert sum(KERNEL_DISPATCH.values()) == dispatched  # no kernel ran

    def test_mutation_guard_drops_the_adopted_closure(self):
        g = self._graph()
        g._adopt_closure(rdfs_closure_by_rules(g))
        object.__setattr__(g, "_triples", frozenset([triple("a", SC, "b")]))
        assert g._cached_closure() is None
        assert closure(g) == rdfs_closure_by_rules(RDFGraph([triple("a", SC, "b")]))
