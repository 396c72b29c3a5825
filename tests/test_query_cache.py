"""Property and unit tests for the query cache.

The headline property: with the cache enabled, ``TripleStore.query``
returns *byte-identical* answers to a from-scratch ``answers()`` call —
same Skolem blank labels, same triples — under random interleaved
query/update streams (the ``test_store_maintenance`` stream machinery).
Every op re-asks every query, so the stream exercises exact hits,
identity and proper containment serving, DRed-delta invalidation,
and eviction — and any stale answer surviving a delta
fails the equality.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BNode, RDFGraph, Triple, URI, Variable
from repro.core.vocabulary import SC, TYPE
from repro.query import QueryCache, answers, head_body_query
from repro.query.cache import (
    CONTAINMENT_HITS,
    EVICTIONS,
    HITS,
    INVALIDATIONS,
    MISSES,
)
from repro.store import TripleStore

from .strategies import uris
from .test_store_maintenance import _apply, _ops, _union

_VARS = [Variable("V0"), Variable("V1"), Variable("V2")]
_HEAD_BLANKS = [BNode("h1"), BNode("h2")]


@st.composite
def cache_queries(draw):
    """Premise-free queries over the maintenance streams' term pools."""
    var_pool = st.sampled_from(_VARS)
    body = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        s = draw(st.one_of(var_pool, uris()))
        p = draw(st.one_of(var_pool, uris(["p", "q", "r"]), st.sampled_from([SC, TYPE])))
        o = draw(st.one_of(var_pool, uris()))
        body.append(Triple(s, p, o))
    body_vars = sorted(
        {x for t in body for x in t.variables()}, key=lambda v: v.value
    )
    head_subject = st.one_of(uris(), st.sampled_from(_HEAD_BLANKS))
    head_object = head_subject
    head_predicate = uris(["p", "q"])
    if body_vars:
        bound = st.sampled_from(body_vars)
        head_subject = st.one_of(head_subject, bound)
        head_object = head_subject
        head_predicate = st.one_of(head_predicate, bound)
    head = [
        Triple(draw(head_subject), draw(head_predicate), draw(head_object))
        for _ in range(draw(st.integers(min_value=1, max_value=2)))
    ]
    head_vars = sorted(
        {x for t in head for x in t.variables()}, key=lambda v: v.value
    )
    constraints = (
        draw(st.sets(st.sampled_from(head_vars), max_size=len(head_vars)))
        if head_vars
        else frozenset()
    )
    return head_body_query(head=head, body=body, constraints=constraints)


_QUERY_STREAMS = st.lists(
    st.tuples(cache_queries(), st.sampled_from(["union", "merge"])),
    min_size=1,
    max_size=4,
)


def _run_parity(ops, queries, **cache_kwargs):
    store = TripleStore()
    store.enable_query_cache(**cache_kwargs)
    model = {"default": set()}
    for op in ops:
        _apply(store, model, op)
        union = RDFGraph(_union(model))
        for q, semantics in queries:
            assert store.query(q, semantics=semantics) == answers(
                q, union, semantics=semantics
            )


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_ops(), queries=_QUERY_STREAMS)
def test_cached_answers_equal_uncached_under_update_streams(ops, queries):
    _run_parity(ops, queries)


@settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ops=_ops(), queries=_QUERY_STREAMS)
def test_parity_survives_tiny_budgets_and_eviction(ops, queries):
    """Constant eviction pressure must never change an answer."""
    _run_parity(ops, queries, max_bytes=2048, max_entries=2)


# ----------------------------------------------------------------------
# Unit tests: counters, serving tiers, invalidation precision
# ----------------------------------------------------------------------


def _t(s, p, o):
    return Triple(URI(s), URI(p), URI(o))


def _ground_store():
    store = TripleStore()
    store.add(_t("a", "p", "b"))
    store.add(_t("b", "p", "c"))
    store.add(_t("c", "q", "d"))
    return store


def test_exact_hit_counters():
    store = _ground_store()
    store.enable_query_cache()
    q = head_body_query(head=[("?x", "p", "?y")], body=[("?x", "p", "?y")])
    first = store.query(q)
    second = store.query(q)
    assert first == second
    assert store.metrics.counter(MISSES) == 1
    assert store.metrics.counter(HITS) == 1


def test_containment_serving_from_general_entry():
    """A cached general query serves its specializations by filtering."""
    store = _ground_store()
    store.enable_query_cache()
    general = head_body_query(
        head=[("?x", "?r", "?y")], body=[("?x", "?r", "?y")]
    )
    store.query(general)
    specialized = head_body_query(
        head=[("?x", "p", "?y")], body=[("?x", "p", "?y")]
    )
    got = store.query(specialized)
    assert store.metrics.counter(CONTAINMENT_HITS) == 1
    assert store.metrics.counter(MISSES) == 1  # only the general query
    assert got == answers(specialized, store.dataset())


def test_identity_body_serves_head_and_semantics_variants():
    store = _ground_store()
    store.enable_query_cache()
    q1 = head_body_query(head=[("?x", "p", "?y")], body=[("?x", "p", "?y")])
    store.query(q1)
    # Same body, different head (blank) and different semantics: served
    # from the entry's valuations, not re-searched.
    q2 = head_body_query(
        head=[(BNode("n"), URI("made"), Variable("y"))],
        body=[("?x", "p", "?y")],
    )
    got = store.query(q2, semantics="merge")
    assert store.metrics.counter(MISSES) == 1
    assert store.metrics.counter(CONTAINMENT_HITS) == 1
    assert got == answers(q2, store.dataset(), semantics="merge")


def test_selective_invalidation_keeps_unrelated_entries():
    store = _ground_store()
    store.enable_query_cache()
    q = head_body_query(head=[("?x", "p", "?y")], body=[("?x", "p", "?y")])
    baseline = store.query(q)
    # A delta on an unrelated predicate must not drop the entry.
    store.add(_t("x", "unrelated", "y"))
    assert store.query(q) == baseline
    assert store.metrics.counter(INVALIDATIONS) == 0
    assert store.metrics.counter(HITS) == 1
    # A delta matching the entry's predicate must drop it — and the
    # re-answer must see the new row.
    store.add(_t("c", "p", "d"))
    updated = store.query(q)
    assert store.metrics.counter(INVALIDATIONS) > 0
    assert updated != baseline
    assert updated == answers(q, store.dataset())


def test_rdfs_delta_invalidates_derived_matches():
    """A schema insert whose *derived* rows match an entry must drop it."""
    store = TripleStore()
    store.add(_t("frida", TYPE.value, "painter"))
    store.enable_query_cache()
    q = head_body_query(
        head=[("?x", TYPE.value, "artist")],
        body=[("?x", TYPE.value, "artist")],
    )
    assert len(store.query(q)) == 0
    # The insert is (painter, sc, artist) — no cached body mentions sc,
    # but DRed's closure delta contains (frida, type, artist), which
    # does match the entry pattern.
    store.add(_t("painter", SC.value, "artist"))
    assert len(store.query(q)) == 1
    assert store.query(q) == answers(q, store.dataset())


def test_blank_node_dataset_flushes_conservatively():
    store = _ground_store()
    store.enable_query_cache()
    q = head_body_query(head=[("?x", "p", "?y")], body=[("?x", "p", "?y")])
    baseline = store.query(q)
    # Dataset gains a blank: core folding could now propagate deltas
    # across predicates, so any change flushes everything.
    store.add(Triple(URI("s"), URI("zzz"), BNode("B")))
    assert store.query(q) == answers(q, store.dataset())
    assert store.metrics.counter(INVALIDATIONS) > 0
    assert baseline == store.query(q)  # still correct, just re-evaluated


def test_eviction_under_entry_cap():
    store = _ground_store()
    store.enable_query_cache(max_entries=1)
    q1 = head_body_query(head=[("?x", "p", "?y")], body=[("?x", "p", "?y")])
    q2 = head_body_query(head=[("?x", "q", "?y")], body=[("?x", "q", "?y")])
    a1, a2 = store.query(q1), store.query(q2)
    assert store.metrics.counter(EVICTIONS) >= 1
    assert len(store.query_cache) == 1
    # Evicted entries re-evaluate correctly.
    assert store.query(q1) == a1
    assert store.query(q2) == a2


def test_disable_and_reenable():
    store = _ground_store()
    q = head_body_query(head=[("?x", "p", "?y")], body=[("?x", "p", "?y")])
    plain = store.query(q)
    store.enable_query_cache()
    assert store.query(q) == plain
    store.disable_query_cache()
    assert store.query_cache is None
    assert store.query(q) == plain


def test_version_bumps_on_effective_deltas_only():
    store = _ground_store()
    v0 = store.version
    store.closure()
    store.add(_t("new", "p", "row"))
    store.normal_form()
    v1 = store.version
    assert v1 > v0
    # Re-adding an existing triple is a no-op: no flush, no bump.
    store.add(_t("new", "p", "row"))
    store.normal_form()
    assert store.version == v1


def test_premise_queries_bypass_cache():
    store = _ground_store()
    store.enable_query_cache()
    q = head_body_query(
        head=[("?x", "p", "?y")],
        body=[("?x", "p", "?y")],
        premise=RDFGraph([_t("extra", "p", "fact")]),
    )
    got = store.query(q)
    assert got == answers(q, store.dataset())
    assert store.metrics.counter(MISSES) == 0  # never entered the cache


def test_frozen_prefix_uris_cannot_poison_certificates():
    """User URIs in the reserved frozen namespace stay constants in the
    cache's certificate search (the satellite collision guard)."""
    evil = URI("urn:frozen-var:V0")
    store = TripleStore()
    store.add(Triple(URI("s"), URI("p"), evil))
    store.add(Triple(URI("s"), URI("p"), URI("plain")))
    store.enable_query_cache()
    general = head_body_query(
        head=[("?V0", "p", "?V1")], body=[("?V0", "p", "?V1")]
    )
    store.query(general)
    # Specialization onto the adversarial constant: served by filtering
    # the general entry; the constant must not thaw into ?V0.
    q = head_body_query(head=[("?V0", "p", evil)], body=[("?V0", "p", evil)])
    got = store.query(q)
    assert store.metrics.counter(CONTAINMENT_HITS) == 1
    assert got == answers(q, store.dataset())
    assert len(got) == 1


def test_query_cache_standalone_counts_through_hook():
    counts = {}

    def hook(name, amount=1):
        counts[name] = counts.get(name, 0) + amount

    cache = QueryCache(count=hook)
    store = _ground_store()
    target = store.normal_form()
    q = head_body_query(head=[("?x", "p", "?y")], body=[("?x", "p", "?y")])
    first = cache.answer(q, "union", target, 0)
    second = cache.answer(q, "union", target, 0)
    assert first == second == answers(q, store.dataset())
    assert counts[MISSES] == 1 and counts[HITS] == 1
    cache.invalidate_all()
    assert counts[INVALIDATIONS] > 0
    assert len(cache) == 0
