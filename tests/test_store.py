"""Tests for the transactional triple store."""

import pytest

from repro.core import BNode, RDFGraph, Triple, triple
from repro.core.vocabulary import DOM, SC, SP, TYPE
from repro.query import head_body_query
from repro.semantics import closure as semantic_closure
from repro.store import DEFAULT_GRAPH, TransactionError, TripleStore


def schema_store():
    store = TripleStore()
    store.add_all(
        [
            triple("painter", SC, "artist"),
            triple("paints", SP, "creates"),
            triple("paints", DOM, "painter"),
        ]
    )
    return store


class TestBasicOperations:
    def test_add_and_contains(self):
        store = TripleStore()
        assert store.add(triple("a", "p", "b"))
        assert triple("a", "p", "b") in store
        assert not store.add(triple("a", "p", "b"))  # duplicate
        assert len(store) == 1

    def test_invalid_triple_rejected(self):
        store = TripleStore()
        with pytest.raises(ValueError):
            store.add(Triple(triple("a", "p", "b").s, BNode("X"), triple("a", "p", "b").o))

    def test_remove(self):
        store = TripleStore()
        store.add(triple("a", "p", "b"))
        assert store.remove(triple("a", "p", "b"))
        assert not store.remove(triple("a", "p", "b"))
        assert len(store) == 0

    def test_named_graphs(self):
        store = TripleStore()
        store.add(triple("a", "p", "b"), graph="g1")
        store.add(triple("c", "q", "d"), graph="g2")
        assert store.graph("g1") == RDFGraph([triple("a", "p", "b")])
        assert len(store.dataset()) == 2
        assert set(store.graph_names()) == {DEFAULT_GRAPH, "g1", "g2"}

    def test_clear_one_graph(self):
        store = TripleStore()
        store.add(triple("a", "p", "b"), graph="g1")
        store.clear("g1")
        assert len(store) == 0

    def test_load_graph_renames_blanks(self):
        store = TripleStore()
        X = BNode("X")
        store.add(triple("a", "p", X))
        store.load_graph(RDFGraph([triple(X, "q", "c")]), graph="imported")
        # The imported X must not be identified with the existing one.
        dataset = store.dataset()
        assert len(dataset.bnodes()) == 2


class TestReasoning:
    def test_entailment_of_ground_triples(self):
        store = schema_store()
        store.add(triple("frida", "paints", "portrait"))
        assert store.entails(triple("frida", TYPE, "painter"))
        assert store.entails(triple("frida", TYPE, "artist"))
        assert store.entails(triple("frida", "creates", "portrait"))
        assert not store.entails(triple("portrait", TYPE, "artist"))

    def test_entailment_with_blank_conclusion(self):
        store = schema_store()
        store.add(triple("frida", "paints", "portrait"))
        assert store.entails(triple("frida", "creates", BNode("W")))

    def test_closure_matches_semantics_module(self):
        store = schema_store()
        store.add(triple("frida", "paints", "portrait"))
        # Close a fresh copy: the snapshot itself carries the store's
        # closure, which would make the comparison a tautology.
        assert store.closure() == semantic_closure(RDFGraph(store.dataset().triples))

    def test_incremental_maintenance_correct(self):
        store = schema_store()
        store.closure()  # materialize
        baseline = dict(store.stats)
        store.add(triple("frida", "paints", "portrait"))
        store.add(triple("artist", SC, "person"))
        assert (
            store.stats["incremental_insert"]
            == baseline["incremental_insert"] + 2
        )
        assert store.stats["recomputed"] == baseline["recomputed"]
        assert store.closure() == semantic_closure(RDFGraph(store.dataset().triples))
        assert store.entails(triple("frida", TYPE, "person"))

    def test_deletion_invalidates(self):
        store = schema_store()
        store.add(triple("frida", "paints", "portrait"))
        assert store.entails(triple("frida", TYPE, "artist"))
        store.remove(triple("painter", SC, "artist"))
        assert not store.entails(triple("frida", TYPE, "artist"))
        assert store.closure() == semantic_closure(RDFGraph(store.dataset().triples))

    def test_blank_data_closure(self):
        store = TripleStore()
        X = BNode("X")
        store.add(triple("a", SC, X))
        store.add(triple(X, SC, "c"))
        assert store.entails(triple("a", SC, "c"))

    def test_query_through_store(self):
        store = schema_store()
        store.add(triple("frida", "paints", "portrait"))
        q = head_body_query(
            head=[("?X", TYPE, "artist")], body=[("?X", TYPE, "artist")]
        )
        assert store.query(q) == RDFGraph([triple("frida", TYPE, "artist")])


class TestTransactions:
    def test_commit(self):
        store = TripleStore()
        with store.transaction():
            store.add(triple("a", "p", "b"))
        assert triple("a", "p", "b") in store

    def test_rollback_on_exception(self):
        store = TripleStore()
        store.add(triple("keep", "p", "me"))
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.add(triple("a", "p", "b"))
                store.remove(triple("keep", "p", "me"))
                raise RuntimeError("abort")
        assert triple("a", "p", "b") not in store
        assert triple("keep", "p", "me") in store

    def test_rollback_restores_reasoning(self):
        store = schema_store()
        assert not store.entails(triple("x", TYPE, "artist"))
        with pytest.raises(RuntimeError):
            with store.transaction():
                store.add(triple("x", TYPE, "painter"))
                raise RuntimeError("abort")
        assert not store.entails(triple("x", TYPE, "artist"))

    def test_nested_begin_rejected(self):
        store = TripleStore()
        store.begin()
        with pytest.raises(TransactionError):
            store.begin()
        store.rollback()

    def test_stray_commit_rejected(self):
        store = TripleStore()
        with pytest.raises(TransactionError):
            store.commit()

    def test_clear_inside_transaction_rejected(self):
        store = TripleStore()
        store.begin()
        with pytest.raises(TransactionError):
            store.clear()
        store.rollback()

    def test_rollback_of_mixed_ops(self):
        store = TripleStore()
        store.add(triple("a", "p", "b"))
        store.begin()
        store.remove(triple("a", "p", "b"))
        store.add(triple("c", "q", "d"))
        store.rollback()
        assert triple("a", "p", "b") in store
        assert triple("c", "q", "d") not in store


class TestDescribe:
    def test_describe_follows_blank_objects(self):
        store = TripleStore()
        X = BNode("X")
        store.add(triple("monalisa", "donatedBy", X))
        store.add(triple(X, "memberOf", "patrons"))
        store.add(triple("other", "p", "q"))
        description = store.describe(triple("monalisa", "p", "q").s)
        assert triple("monalisa", "donatedBy", X) in description
        assert triple(X, "memberOf", "patrons") in description
        assert triple("other", "p", "q") not in description

    def test_describe_handles_blank_cycles(self):
        store = TripleStore()
        X, Y = BNode("X"), BNode("Y")
        store.add(triple("root", "p", X))
        store.add(triple(X, "p", Y))
        store.add(triple(Y, "p", X))  # cycle must not loop forever
        description = store.describe(triple("root", "p", "q").s)
        assert len(description) == 3

    def test_describe_unknown_node_empty(self):
        store = TripleStore()
        store.add(triple("a", "p", "b"))
        from repro.core import URI

        assert len(store.describe(URI("zzz"))) == 0

    def test_cached_normal_form_reused(self):
        store = schema_store()
        store.add(triple("frida", "paints", "portrait"))
        nf1 = store.normal_form()
        nf2 = store.normal_form()
        assert nf1 is nf2  # cached object identity
        store.add(triple("diego", "paints", "mural"))
        nf3 = store.normal_form()
        assert nf3 is not nf1
        from repro.minimize import normal_form as nf_fn

        assert nf3 == nf_fn(store.dataset())
