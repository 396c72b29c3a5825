"""Property tests for delta-aware store maintenance.

Hypothesis replays random interleaved insert/delete/transaction streams
against a :class:`TripleStore` and, after every top-level step, checks
the three maintained structures against their from-scratch
counterparts:

* the materialized closure (semi-naive insertion deltas + DRed
  deletions) against ``rdfs_closure`` of the current dataset;
* the live dataset cache (union snapshot + positional indexes) against
  a model kept as plain per-graph sets;
* the cached normal form against ``normal_form`` of the dataset;
* entailment, through the dataset snapshot (which adopts the store's
  closure) and through ``store.entails``, against Theorem 2.8 over the
  rule-engine closure of a fresh copy (:class:`EntailmentMachine`).

``validate_maintenance`` is switched on, so every flush additionally
cross-checks the incremental fixpoint against a from-scratch Datalog
evaluation inside the store itself.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core import BNode, RDFGraph, Triple, URI, find_map
from repro.core.vocabulary import DOM, RANGE, SC, SP, TYPE
from repro.minimize import normal_form as normal_form_fn
from repro.semantics import closure, entails, rdfs_closure, rdfs_closure_by_rules
from repro.semantics.closure import closure_delta
from repro.store import TripleStore

from .strategies import rdfs_triples

_GRAPHS = ["default", "aux"]


def _ops():
    """One mutation stream: adds, removes, and transaction blocks."""
    simple = st.tuples(
        st.sampled_from(["add", "remove"]),
        rdfs_triples(),
        st.sampled_from(_GRAPHS),
    )
    txn = st.tuples(
        st.just("txn"),
        st.lists(
            st.tuples(
                st.sampled_from(["add", "remove"]), rdfs_triples()
            ),
            min_size=1,
            max_size=4,
        ),
        st.booleans(),  # True = commit, False = roll back
    )
    return st.lists(st.one_of(simple, txn), min_size=1, max_size=8)


def _apply(store, model, op):
    """Run one stream element on the store and mirror it in the model."""
    kind = op[0]
    if kind == "txn":
        _, body, should_commit = op
        backup = {name: set(ts) for name, ts in model.items()}
        store.begin()
        for action, t in body:
            if action == "add":
                store.add(t)
                model.setdefault("default", set()).add(t)
            else:
                store.remove(t)
                model.get("default", set()).discard(t)
        if should_commit:
            store.commit()
        else:
            store.rollback()
            model.clear()
            model.update(backup)
    else:
        kind, t, graph = op
        if kind == "add":
            store.add(t, graph=graph)
            model.setdefault(graph, set()).add(t)
        else:
            store.remove(t, graph=graph)
            model.get(graph, set()).discard(t)


def _union(model):
    out = set()
    for triples in model.values():
        out |= triples
    return out


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_ops())
def test_maintained_state_matches_from_scratch(ops):
    store = TripleStore()
    store.validate_maintenance = True
    model = {"default": set()}
    store.closure()  # materialize up front so every step maintains
    for op in ops:
        _apply(store, model, op)
        union = RDFGraph(_union(model))
        # Dataset cache: snapshot, membership, and index-backed lookups.
        assert store.dataset() == union
        assert set(store.match()) == set(union.triples)
        assert store.count() == len(union)
        for t in list(union)[:3]:
            assert store.count(s=t.s) == union.count(s=t.s)
            assert store.count(p=t.p) == union.count(p=t.p)
            assert set(store.match(s=t.s, p=t.p)) == set(
                union.match(s=t.s, p=t.p)
            )
        # Maintained closure vs from-scratch closure.
        reference = rdfs_closure(union)
        assert store.closure() == reference
        # closure_delta reuse: the store's delta equals the definition.
        assert store.closure_delta() == closure_delta(union, closed=reference)
        # Maintained normal form vs from-scratch normal form.
        assert store.normal_form() == normal_form_fn(union)


@settings(max_examples=20, deadline=None)
@given(ops=_ops())
def test_lazy_store_agrees_without_materialization(ops):
    """The same streams, never forcing early materialization: the final
    lazily-computed closure must match the from-scratch one too."""
    store = TripleStore()
    model = {"default": set()}
    for op in ops:
        _apply(store, model, op)
    union = RDFGraph(_union(model))
    assert store.dataset() == union
    assert store.closure() == rdfs_closure(union)


def test_closure_unchanged_keeps_normal_form_cache():
    """A write whose closure delta is empty must not drop the cached nf."""
    from repro.core import triple
    from repro.core.vocabulary import SC, TYPE

    store = TripleStore()
    store.add(triple("painter", SC, "artist"))
    store.add(triple("frida", TYPE, "painter"))
    nf1 = store.normal_form()
    # Already entailed: (frida, type, artist) is in the closure, so the
    # maintenance step finds an empty closure delta.
    store.add(triple("frida", TYPE, "artist"))
    assert store.normal_form() is nf1
    # A genuinely new fact invalidates it.
    store.add(triple("diego", TYPE, "painter"))
    assert store.normal_form() is not nf1


def test_deletion_takes_incremental_path():
    from repro.core import triple
    from repro.core.vocabulary import SC, TYPE

    store = TripleStore()
    store.validate_maintenance = True
    store.add(triple("a", SC, "b"))
    store.add(triple("b", SC, "c"))
    store.add(triple("x", TYPE, "a"))
    store.closure()
    recomputes = store.stats["recomputed"]
    assert store.remove(triple("b", SC, "c"))
    assert store.stats["incremental_delete"] == 1
    assert store.stats["recomputed"] == recomputes
    assert not store.entails(triple("x", TYPE, "c"))
    assert store.entails(triple("x", TYPE, "b"))


def test_clear_graph_maintains_closure():
    from repro.core import triple
    from repro.core.vocabulary import SC, TYPE

    store = TripleStore()
    store.validate_maintenance = True
    store.add(triple("a", SC, "b"))
    store.add(triple("x", TYPE, "a"), graph="facts")
    store.closure()
    store.clear("facts")
    assert store.stats["incremental_delete"] == 1
    assert store.closure() == rdfs_closure(store.dataset())
    assert not store.entails(triple("x", TYPE, "b"))


def test_duplicate_across_graphs_is_refcounted():
    """A triple asserted in two graphs leaves the union (and closure)
    only when its last occurrence is removed."""
    from repro.core import triple
    from repro.core.vocabulary import SC, TYPE

    store = TripleStore()
    store.validate_maintenance = True
    store.add(triple("a", SC, "b"))
    store.add(triple("x", TYPE, "a"))
    store.add(triple("x", TYPE, "a"), graph="aux")
    store.closure()
    stats_before = dict(store.stats)
    store.remove(triple("x", TYPE, "a"), graph="aux")
    # Still present via the default graph: no maintenance step ran.
    assert store.stats == stats_before
    assert store.entails(triple("x", TYPE, "b"))
    store.remove(triple("x", TYPE, "a"))
    assert not store.entails(triple("x", TYPE, "b"))


def test_dataset_snapshot_amortized():
    from repro.core import triple

    store = TripleStore()
    store.add(triple("a", "p", "b"))
    d1 = store.dataset()
    assert store.dataset() is d1  # O(1): cached between writes
    store.add(triple("c", "p", "d"))
    d2 = store.dataset()
    assert d2 is not d1
    assert store.dataset() is d2


# ---------------------------------------------------------------------------
# Entailment against the maintained closure (Theorem 2.8)
# ---------------------------------------------------------------------------

_X, _Y, _Z = BNode("X"), BNode("Y"), BNode("Z")
_A, _B, _C, _P = URI("a"), URI("b"), URI("c"), URI("p")

_data_triples = st.builds(
    Triple,
    st.sampled_from([_A, _B, _C, _Z]),
    st.sampled_from([_P, SC, SP, TYPE, DOM, RANGE]),
    st.sampled_from([_A, _B, _C, _P, _Z]),
)

#: Ground and blank goals; single-triple ones also go to ``store.entails``.
_GOALS = [
    RDFGraph([Triple(_A, TYPE, _C)]),
    RDFGraph([Triple(_A, SC, _C)]),
    RDFGraph([Triple(_A, _P, _B)]),
    RDFGraph([Triple(_X, TYPE, _C)]),
    RDFGraph([Triple(_A, _P, _X)]),
    RDFGraph([Triple(_X, SP, _P)]),
    RDFGraph([Triple(_X, _P, _Y), Triple(_Y, TYPE, _B)]),
    RDFGraph([Triple(_Z, TYPE, _X), Triple(_X, SC, _C)]),
]


class EntailmentMachine(RuleBasedStateMachine):
    """Writes, transactions and reads in any order; after every step,
    ``entails(store.dataset(), G)`` and ``store.entails(t)`` must agree
    with Theorem 2.8 over the rule-engine closure of a fresh copy of
    the dataset (no memo involved)."""

    def __init__(self):
        super().__init__()
        self.store = TripleStore()
        self.store.validate_maintenance = True
        self.model = {"default": set()}
        self.backup = None

    @rule(t=_data_triples, graph=st.sampled_from(_GRAPHS))
    def add(self, t, graph):
        self.store.add(t, graph=graph)
        self.model.setdefault(graph, set()).add(t)

    @rule(t=_data_triples, graph=st.sampled_from(_GRAPHS))
    def remove(self, t, graph):
        self.store.remove(t, graph=graph)
        self.model.get(graph, set()).discard(t)

    @rule(ts=st.lists(_data_triples, max_size=4), graph=st.sampled_from(_GRAPHS))
    def add_all(self, ts, graph):
        self.store.add_all(ts, graph=graph)
        self.model.setdefault(graph, set()).update(ts)

    @rule()
    def read_closure(self):
        # Inside a transaction this flushes the buffered delta.
        self.store.closure()

    @precondition(lambda self: self.backup is None)
    @rule()
    def begin(self):
        self.store.begin()
        self.backup = {name: set(ts) for name, ts in self.model.items()}

    @precondition(lambda self: self.backup is not None)
    @rule()
    def commit(self):
        self.store.commit()
        self.backup = None

    @precondition(lambda self: self.backup is not None)
    @rule()
    def rollback(self):
        self.store.rollback()
        self.model, self.backup = self.backup, None

    @precondition(lambda self: self.backup is None)
    @rule(graph=st.sampled_from(_GRAPHS + [None]))
    def clear(self, graph):
        self.store.clear(graph)
        if graph is None:
            self.model = {"default": set()}
        else:
            self.model.pop(graph, None)

    @invariant()
    def entailment_matches_specification(self):
        union = RDFGraph(_union(self.model))
        reference = rdfs_closure_by_rules(union)  # built from the model
        expected = [find_map(goal, reference) is not None for goal in _GOALS]
        # Read before any flush this invariant causes, then after.
        for _ in range(2):
            snapshot = self.store.dataset()
            assert snapshot == union
            adopted = snapshot._cached_closure()
            if adopted is not None:
                assert adopted == closure(RDFGraph(snapshot.triples))
            for goal, verdict in zip(_GOALS, expected):
                assert entails(snapshot, goal) == verdict
            for goal, verdict in zip(_GOALS, expected):
                if len(goal) == 1:
                    assert self.store.entails(next(iter(goal))) == verdict


EntailmentMachine.TestCase.settings = settings(
    max_examples=50,
    stateful_step_count=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
TestEntailmentAgainstMaintainedClosure = EntailmentMachine.TestCase


def test_snapshot_adopts_the_maintained_closure():
    """Reads inside a transaction adopt only after the delta is flushed."""
    from repro.core import triple

    store = TripleStore()
    store.add(triple("painter", SC, "artist"))
    store.add(triple("frida", TYPE, "painter"))
    closed = store.closure()
    assert store.dataset()._cached_closure() is closed
    goal = RDFGraph([Triple(BNode("X"), TYPE, URI("artist"))])
    assert entails(store.dataset(), goal)
    store.begin()
    store.add(triple("diego", TYPE, "painter"))
    # Buffered, not flushed: the snapshot must not borrow the old closure.
    assert store.dataset()._cached_closure() is None
    assert entails(store.dataset(), RDFGraph([triple("diego", TYPE, "artist")]))
    flushed = store.closure()  # first closure-dependent read flushes
    assert flushed is not closed
    assert store.dataset()._cached_closure() is flushed
    store.rollback()
    assert not store.entails(triple("diego", TYPE, "artist"))
    restored = store.closure()
    assert store.dataset()._cached_closure() is restored
