"""Targeted tests for branches the main suites touch only lightly."""

import pytest

from repro.core import BNode, Literal, RDFGraph, Triple, URI, Variable, triple
from repro.core.vocabulary import DOM, RANGE, SC, SP, TYPE


class TestClosureOracleGenericPredicates:
    def test_lifted_ordinary_triple_membership(self):
        from repro.semantics import ClosureOracle

        g = RDFGraph(
            [
                triple("narrow", SP, "mid"),
                triple("mid", SP, "wide"),
                triple("x", "narrow", "y"),
            ]
        )
        oracle = ClosureOracle(g)
        assert oracle.contains(triple("x", "mid", "y"))
        assert oracle.contains(triple("x", "wide", "y"))
        assert not oracle.contains(triple("y", "wide", "x"))
        assert not oracle.contains(triple("x", "narrow2", "y"))

    def test_dom_range_triples_never_derived(self):
        from repro.semantics import ClosureOracle

        g = RDFGraph([triple("p", DOM, "c"), triple("q", SP, "p")])
        oracle = ClosureOracle(g)
        assert not oracle.contains(triple("q", DOM, "c"))  # dom not inherited


class TestProofEdgeCases:
    def test_multi_step_existential_sequence(self):
        """A hand-built proof with an existential step in the middle."""
        from repro.core import Map
        from repro.semantics.proof import ExistentialStep, Proof, RuleStep
        from repro.semantics.rules import RULE_4, RuleInstantiation

        g = RDFGraph([triple("a", SC, "b"), triple("b", SC, "c")])
        inst = RuleInstantiation(
            rule=RULE_4,
            assignment=(
                (Variable("A"), URI("a")),
                (Variable("B"), URI("b")),
                (Variable("C"), URI("c")),
            ),
        )
        after_rule = g.union(RDFGraph([triple("a", SC, "c")]))
        X = BNode("X")
        weaker = RDFGraph([triple("a", SC, X)])
        proof = Proof(
            premise=g,
            conclusion=weaker,
            steps=(
                RuleStep(inst),
                ExistentialStep(result=weaker, witness=Map({X: URI("c")})),
            ),
        )
        assert proof.verify()

    def test_existential_step_with_invalid_image_graph(self):
        from repro.core import Map
        from repro.semantics.proof import ExistentialStep

        g = RDFGraph([triple("a", "p", "b")])
        target = RDFGraph([triple(BNode("X"), "p", "b")])
        step = ExistentialStep(result=target, witness=Map({BNode("X"): URI("zzz")}))
        assert step.apply(g) is None


class TestStoreCornerCases:
    def test_query_with_merge_semantics(self):
        from repro.query import head_body_query
        from repro.store import TripleStore

        store = TripleStore()
        X = BNode("X")
        store.add(triple(X, "p", "a"))
        store.add(triple(X, "p", "b"))
        q = head_body_query(head=[("?N", "f", "?V")], body=[("?N", "p", "?V")])
        union = store.query(q, semantics="union")
        merge = store.query(q, semantics="merge")
        assert len(union.bnodes()) == 1
        assert len(merge.bnodes()) == 2

    def test_entails_before_any_materialization(self):
        from repro.store import TripleStore

        store = TripleStore()
        store.add(triple("a", SC, "b"))
        # First entails() call must materialize lazily.
        assert store.entails(triple("a", SC, "b"))
        assert store.stats["recomputed"] == 1

    def test_incremental_path_used_after_lazy_materialization(self):
        from repro.store import TripleStore

        store = TripleStore()
        store.add(triple("a", SC, "b"))
        store.entails(triple("a", SC, "b"))
        store.add(triple("b", SC, "c"))
        assert store.stats["incremental_insert"] == 1
        assert store.entails(triple("a", SC, "c"))


class TestUnionEdgeCases:
    def test_right_union_member_with_premise_rejected(self):
        from repro.query import UnionQuery, head_body_query, union_contained_entailment

        with_premise = head_body_query(
            head=[("?X", "sel", "?X")],
            body=[("?X", "p", "?Y")],
            premise=RDFGraph([triple("a", "t", "s")]),
        )
        plain = head_body_query(head=[("?X", "sel", "?X")], body=[("?X", "p", "?Y")])
        union = UnionQuery.of(with_premise, plain)
        with pytest.raises(NotImplementedError):
            union_contained_entailment(plain, union)

    def test_left_premise_expands_before_union_test(self):
        from repro.query import UnionQuery, head_body_query, union_contained_entailment

        q = head_body_query(
            head=[("?X", "sel", "?X")],
            body=[("?X", "q", "?Y"), ("?Y", "t", "s")],
            premise=RDFGraph([triple("a", "t", "s")]),
        )
        wide = head_body_query(head=[("?X", "sel", "?X")], body=[("?X", "q", "?Y")])
        union = UnionQuery.of(wide)
        assert union_contained_entailment(q, union)


class TestPremiseEliminationWithConstraints:
    def test_constraint_discharged_by_ground_binding(self):
        from repro.query import answer_union, head_body_query, premise_elimination

        q = head_body_query(
            head=[("?X", "sel", "?Y")],
            body=[("?X", "q", "?Y"), ("?Y", "t", "s")],
            premise=RDFGraph([triple("a", "t", "s")]),
            constraints=[Variable("Y")],
        )
        members = premise_elimination(q)
        # The member binding ?Y → a discharges the constraint.
        discharged = [m for m in members if not m.constraints]
        assert discharged
        # Answer equivalence still holds on a panel.
        for d in (
            RDFGraph([triple("u", "q", "a")]),
            RDFGraph([triple("u", "q", "v"), triple("v", "t", "s")]),
            RDFGraph([triple("u", "q", BNode("W")), triple(BNode("W"), "t", "s")]),
        ):
            expected = answer_union(q, d)
            combined = RDFGraph()
            for m in members:
                combined = combined.union(answer_union(m, d))
            assert combined == expected, str(d)

    def test_blank_binding_of_constrained_variable_drops_member(self):
        from repro.query import head_body_query, premise_elimination

        X = BNode("X")
        q = head_body_query(
            head=[("?Y", "sel", "c")],
            body=[("?Y", "t", "s")],
            premise=RDFGraph([triple(X, "t", "s")]),
            constraints=[Variable("Y")],
        )
        members = premise_elimination(q)
        # No member may have bound ?Y to the premise blank.
        for m in members:
            for t in m.head:
                assert not isinstance(t.s, BNode)


class TestViewsWithMergeSemantics:
    def test_extended_database_merge(self):
        from repro.query import View, ViewCatalog, head_body_query

        d = RDFGraph([triple("a", "p", "b")])
        catalog = ViewCatalog(
            [
                View(
                    name="ex",
                    query=head_body_query(
                        head=[(BNode("N"), "derived", "?X")],
                        body=[("?X", "p", "?Y")],
                    ),
                )
            ]
        )
        extended = catalog.extended_database(d, semantics="merge")
        assert d.issubgraph(extended)
        assert extended.bnodes()


class TestAnswersDeterminism:
    def test_merge_answers_deterministic(self):
        from repro.query import answer_merge, head_body_query

        X = BNode("X")
        d = RDFGraph([triple(X, "p", "a"), triple(X, "p", "b"), triple(X, "q", "c")])
        q = head_body_query(head=[("?N", "f", "?V")], body=[("?N", "?P", "?V")])
        assert answer_merge(q, d) == answer_merge(q, d)

    def test_pre_answers_sorted(self):
        from repro.query import head_body_query, pre_answers

        d = RDFGraph([triple("b", "p", "x"), triple("a", "p", "x")])
        q = head_body_query(head=[("?S", "sel", "x")], body=[("?S", "p", "x")])
        found = pre_answers(q, d)
        rendered = [str(a) for a in found]
        assert rendered == sorted(rendered)


class TestMinimalRepresentationBlankGraphs:
    def test_blank_graph_minimal_representation(self):
        from repro.minimize import minimal_representation
        from repro.semantics import equivalent

        X = BNode("X")
        g = RDFGraph(
            [triple("a", SC, X), triple(X, SC, "c"), triple("a", SC, "c")]
        )
        m = minimal_representation(g)
        assert equivalent(m, g)
        assert len(m) < len(g)


class TestLiteralHandling:
    def test_literals_in_closure(self):
        from repro.semantics import rdfs_closure

        g = RDFGraph(
            [
                triple("name", RANGE, "string-ish"),
                Triple(URI("x"), URI("name"), Literal("Pablo")),
            ]
        )
        closed = rdfs_closure(g)
        # Rule (7) would type the literal, but literals cannot be
        # subjects; no ill-formed triple may appear.
        assert all(t.is_valid_rdf() for t in closed)
        assert not any(
            isinstance(t.s, Literal) for t in closed
        )

    def test_literal_dom_typing_works_on_subject(self):
        from repro.semantics import rdfs_closure

        g = RDFGraph(
            [
                triple("name", DOM, "person"),
                Triple(URI("x"), URI("name"), Literal("Pablo")),
            ]
        )
        assert triple("x", TYPE, "person") in rdfs_closure(g)

    def test_empty_literal_roundtrip(self):
        from repro.rdfio import parse_ntriples, serialize_ntriples

        g = RDFGraph([Triple(URI("a"), URI("p"), Literal(""))])
        assert parse_ntriples(serialize_ntriples(g)) == g
