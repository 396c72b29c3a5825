"""Unit tests for :mod:`repro.core.graph` (Section 2.1 operations)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BNode, Literal, RDFGraph, Triple, URI, graph_from_triples, triple
from repro.core.graph import SKOLEM_PREFIX
from repro.core.vocabulary import SC, SP

from .strategies import rdfs_triples


def g(*tuples):
    return graph_from_triples(*tuples)


class TestConstruction:
    def test_from_tuples_coerces_strings(self):
        graph = g(("a", "p", "b"))
        assert Triple(URI("a"), URI("p"), URI("b")) in graph

    def test_rejects_ill_formed(self):
        with pytest.raises(ValueError):
            RDFGraph([Triple(Literal("l"), URI("p"), URI("b"))])
        with pytest.raises(ValueError):
            RDFGraph([Triple(URI("a"), BNode("X"), URI("b"))])

    def test_deduplicates(self):
        graph = g(("a", "p", "b"), ("a", "p", "b"))
        assert len(graph) == 1

    def test_empty(self):
        graph = RDFGraph()
        assert len(graph) == 0
        assert not graph
        assert graph.is_ground()
        assert graph.is_simple()


class TestSection21Notions:
    def test_universe(self):
        X = BNode("X")
        graph = RDFGraph([triple("a", "p", X)])
        assert graph.universe() == {URI("a"), URI("p"), X}

    def test_voc_is_universe_cap_uris(self):
        X = BNode("X")
        graph = RDFGraph([triple("a", "p", X)])
        assert graph.voc() == {URI("a"), URI("p")}

    def test_ground(self):
        assert g(("a", "p", "b")).is_ground()
        assert not RDFGraph([triple("a", "p", BNode("X"))]).is_ground()

    def test_simple_definition_2_2(self):
        assert g(("a", "p", "b")).is_simple()
        assert not RDFGraph([triple("a", SC, "b")]).is_simple()
        assert not RDFGraph([triple("a", SP, "b")]).is_simple()
        # sc as a plain node (not predicate) still counts: voc ∩ rdfsV ≠ ∅.
        assert not g(("sc", "p", "b")).is_simple()

    def test_union_shares_blanks(self):
        X = BNode("X")
        g1 = RDFGraph([triple("a", "p", X)])
        g2 = RDFGraph([triple(X, "q", "b")])
        u = g1.union(g2)
        assert len(u) == 2
        assert u.bnodes() == {X}

    def test_merge_renames_clashing_blanks(self):
        X = BNode("X")
        g1 = RDFGraph([triple("a", "p", X)])
        g2 = RDFGraph([triple(X, "q", "b")])
        m = g1.merge(g2)
        assert len(m) == 2
        assert len(m.bnodes()) == 2  # X kept apart from renamed copy

    def test_merge_without_clash_is_union(self):
        g1 = RDFGraph([triple("a", "p", BNode("X"))])
        g2 = RDFGraph([triple(BNode("Y"), "q", "b")])
        assert g1.merge(g2) == g1.union(g2)

    def test_merge_operator(self):
        g1 = RDFGraph([triple("a", "p", BNode("X"))])
        g2 = RDFGraph([triple(BNode("X"), "q", "b")])
        assert (g1 + g2) == g1.merge(g2)
        assert (g1 | g2) == g1.union(g2)

    def test_merge_preserves_isomorphism_type(self):
        from repro.core import isomorphic

        X = BNode("X")
        g1 = RDFGraph([triple("a", "p", X)])
        g2 = RDFGraph([triple(X, "q", "b")])
        # G1 + G2 is the union with an isomorphic copy of G2.
        merged = g1 + g2
        renamed_part = merged - g1
        assert isomorphic(renamed_part, g2)

    def test_subtraction(self):
        graph = g(("a", "p", "b"), ("a", "p", "c"))
        assert len(graph - {triple("a", "p", "b")}) == 1


class TestMatch:
    def setup_method(self):
        self.X = BNode("X")
        self.graph = RDFGraph(
            [
                triple("a", "p", "b"),
                triple("a", "p", "c"),
                triple("a", "q", "b"),
                triple("d", "p", self.X),
            ]
        )

    def test_by_subject(self):
        assert len(list(self.graph.match(s=URI("a")))) == 3

    def test_by_predicate(self):
        assert len(list(self.graph.match(p=URI("p")))) == 3

    def test_by_object(self):
        assert len(list(self.graph.match(o=URI("b")))) == 2

    def test_by_sp(self):
        assert len(list(self.graph.match(s=URI("a"), p=URI("p")))) == 2

    def test_by_po(self):
        assert len(list(self.graph.match(p=URI("p"), o=URI("b")))) == 1

    def test_by_so(self):
        assert len(list(self.graph.match(s=URI("a"), o=URI("b")))) == 2

    def test_exact(self):
        assert len(list(self.graph.match(URI("a"), URI("p"), URI("b")))) == 1
        assert len(list(self.graph.match(URI("a"), URI("p"), URI("z")))) == 0

    def test_wildcard_all(self):
        assert len(list(self.graph.match())) == 4

    def test_count(self):
        assert self.graph.count(s=URI("a")) == 3
        assert self.graph.count(p=URI("q")) == 1
        assert self.graph.count() == 4

    def test_match_missing_term(self):
        assert list(self.graph.match(s=URI("zzz"))) == []


class TestLazyIndexInvalidation:
    """The lazy ``_by_object``/``_by_so`` builds must not serve stale
    answers after the triple set is mutated in place (regression: a
    snapshot built before the mutation used to survive it, because the
    cache slot was only checked for ``None``)."""

    def _mutate(self, graph, new_triples):
        object.__setattr__(graph, "_triples", frozenset(new_triples))

    def test_object_index_rebuilds_after_mutation(self):
        graph = g(("a", "p", "b"), ("c", "p", "b"))
        # Force the lazy object index into existence, then mutate.
        assert graph.count(o=URI("b")) == 2
        self._mutate(graph, set(graph.triples) | {triple("d", "q", "b")})
        assert graph.count(o=URI("b")) == 3
        assert {t.s for t in graph.match(o=URI("b"))} == {
            URI("a"), URI("c"), URI("d"),
        }

    def test_so_index_rebuilds_after_mutation(self):
        graph = g(("a", "p", "b"), ("a", "q", "b"))
        assert graph.count(s=URI("a"), o=URI("b")) == 2
        self._mutate(graph, set(graph.triples) - {triple("a", "q", "b")})
        assert graph.count(s=URI("a"), o=URI("b")) == 1
        assert [t.p for t in graph.match(s=URI("a"), o=URI("b"))] == [URI("p")]

    def test_core_indexes_rebuild_after_mutation(self):
        graph = g(("a", "p", "b"))
        assert graph.count(s=URI("a")) == 1
        assert graph.universe() == {URI("a"), URI("p"), URI("b")}
        self._mutate(graph, {triple("x", "y", "z")})
        assert graph.count(s=URI("a")) == 0
        assert graph.count(s=URI("x")) == 1
        assert graph.universe() == {URI("x"), URI("y"), URI("z")}
        assert graph.predicates() == {URI("y")}


class TestTrustedConstructionParity:
    """A lazily built graph answers exactly like an eagerly built one,
    whichever accessor touches it first."""

    @staticmethod
    def _probes(graph):
        return [(t.s, None, None) for t in graph] + [
            (None, t.p, t.o) for t in graph
        ] + [(t.s, None, t.o) for t in graph] + [(None, None, None)]

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(rdfs_triples(), max_size=8),
        st.sampled_from(["terms-first", "match-first"]),
    )
    def test_universe_bnodes_match_agree(self, ts, order):
        eager = RDFGraph(ts)
        lazy = RDFGraph._from_trusted(ts)
        if order == "match-first":
            for s, p, o in self._probes(eager):
                assert set(lazy.match(s, p, o)) == set(eager.match(s, p, o))
        assert lazy.universe() == eager.universe()
        assert lazy.bnodes() == eager.bnodes()
        assert lazy.universe() == {x for t in ts for x in t}
        assert lazy.bnodes() == {x for t in ts for x in t if isinstance(x, BNode)}
        for s, p, o in self._probes(eager):
            assert set(lazy.match(s, p, o)) == set(eager.match(s, p, o))
            assert lazy.count(s, p, o) == eager.count(s, p, o)


class TestSkolemization:
    def test_roundtrip(self):
        X = BNode("X")
        graph = RDFGraph([triple("a", "p", X), triple(X, "q", "b")])
        sk, inverse = graph.skolemize()
        assert sk.is_ground()
        assert RDFGraph.unskolemize(sk, inverse) == graph

    def test_skolem_constants_have_prefix(self):
        graph = RDFGraph([triple("a", "p", BNode("X"))])
        sk, _ = graph.skolemize()
        objs = [t.o for t in sk]
        assert objs[0].value == SKOLEM_PREFIX + "X"

    def test_unskolemize_drops_blank_predicates(self):
        # A triple whose predicate is a Skolem constant must be dropped,
        # as Section 3.1 prescribes.
        sk_p = URI(SKOLEM_PREFIX + "X")
        graph = RDFGraph([Triple(URI("a"), sk_p, URI("b"))])
        restored = RDFGraph.unskolemize(graph, {sk_p: BNode("X")})
        assert len(restored) == 0

    def test_ground_graph_unchanged(self):
        graph = g(("a", "p", "b"))
        sk, inverse = graph.skolemize()
        assert sk == graph
        assert inverse == {}


class TestBlankCycles:
    def test_no_blanks_no_cycle(self):
        assert not g(("a", "p", "b"), ("b", "p", "a")).has_blank_cycle()

    def test_ground_cycle_not_blank_cycle(self):
        # Cycle through URIs only: not induced by blank nodes.
        assert not g(("a", "p", "b"), ("b", "p", "c"), ("c", "p", "a")).has_blank_cycle()

    def test_blank_triangle(self):
        X, Y, Z = BNode("X"), BNode("Y"), BNode("Z")
        graph = RDFGraph(
            [triple(X, "p", Y), triple(Y, "p", Z), triple(Z, "p", X)]
        )
        assert graph.has_blank_cycle()

    def test_blank_chain_acyclic(self):
        X, Y, Z = BNode("X"), BNode("Y"), BNode("Z")
        graph = RDFGraph([triple(X, "p", Y), triple(Y, "p", Z)])
        assert not graph.has_blank_cycle()

    def test_cycle_broken_by_uri(self):
        # A cycle whose path passes through a URI is not blank-induced.
        X, Y = BNode("X"), BNode("Y")
        graph = RDFGraph(
            [triple(X, "p", Y), triple(Y, "p", "u"), triple("u", "p", X)]
        )
        assert not graph.has_blank_cycle()

    def test_self_loop_on_blank(self):
        X = BNode("X")
        assert RDFGraph([triple(X, "p", X)]).has_blank_cycle()

    def test_parallel_blank_edges_count_as_cycle(self):
        X, Y = BNode("X"), BNode("Y")
        graph = RDFGraph([triple(X, "p", Y), triple(X, "q", Y)])
        assert graph.has_blank_cycle()

    def test_undirected_reading(self):
        # Opposite orientations between the same pair: still a cycle.
        X, Y = BNode("X"), BNode("Y")
        graph = RDFGraph([triple(X, "p", Y), triple(Y, "q", X)])
        assert graph.has_blank_cycle()


class TestMisc:
    def test_sorted_triples_deterministic(self):
        graph = g(("b", "p", "c"), ("a", "p", "c"))
        assert [str(t.s) for t in graph.sorted_triples()] == ["a", "b"]

    def test_str(self):
        assert str(g(("a", "p", "b"))) == "{(a, p, b)}"

    def test_rename_bnodes(self):
        X, Y = BNode("X"), BNode("Y")
        graph = RDFGraph([triple("a", "p", X)])
        renamed = graph.rename_bnodes({X: Y})
        assert renamed == RDFGraph([triple("a", "p", Y)])

    def test_map_terms_drops_invalid(self):
        graph = g(("a", "p", "b"))

        def to_literal(term):
            return Literal(term.value) if term == URI("a") else term

        assert len(graph.map_terms(to_literal)) == 0

    def test_subjects_predicates_objects(self):
        graph = g(("a", "p", "b"))
        assert graph.subjects() == {URI("a")}
        assert graph.predicates() == {URI("p")}
        assert graph.objects() == {URI("b")}

    def test_hash_equality(self):
        assert hash(g(("a", "p", "b"))) == hash(g(("a", "p", "b")))
        assert g(("a", "p", "b")) == g(("a", "p", "b"))
