"""Property tests for the sorted-run columnar layer (repro.core.columns).

The arrays kernel is only admissible if the columnar substrate is
*observationally a set*: every range lookup, merge and join over the
flat columns must agree with the naive nested-loop/set-algebra answer
over the same tuples.  Hypothesis drives random row sets — including
IDs in the reserved-vocabulary band and the BNode/Literal high bands —
through every operation, and random wild graphs (vocabulary in
subject/object positions, literal objects) through the closure kernels,
which must agree triple-for-triple with the rule system.
"""

from bisect import bisect_left, bisect_right
from importlib import import_module

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import BNode, Literal, RDFGraph, Triple, URI
from repro.core.columns import (
    SortedRuns,
    dedup_sorted,
    gallop_left,
    gallop_right,
    merge_diff_sorted,
    merge_join_pairs,
    merge_union_sorted,
)
from repro.core.interning import BNODE_BASE, LITERAL_BASE
from repro.core.vocabulary import DOM, RANGE, SC, SP, TYPE
from repro.semantics.closure import (
    rdfs_closure_arrays,
    rdfs_closure_by_rules,
    rdfs_closure_partitioned,
)

from .strategies import rdfs_graphs

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: ID pool straddling all three kind bands (URI / BNode / Literal) plus
#: the pinned vocabulary range [0, 5) — the regions whose boundaries the
#: kernels' range checks dispatch on.
_IDS = st.sampled_from(
    [0, 1, 2, 3, 4, 5, 6, 9, 17, BNODE_BASE, BNODE_BASE + 3,
     LITERAL_BASE, LITERAL_BASE + 7]
)


def encoded_rows(max_size: int = 12):
    return st.lists(st.tuples(_IDS, _IDS, _IDS), min_size=0, max_size=max_size)


def sorted_unique(max_size: int = 12):
    return st.lists(
        st.integers(min_value=0, max_value=30), max_size=max_size
    ).map(lambda xs: sorted(set(xs)))


# Wild term pools (same shape as tests/test_interning.py): reserved
# vocabulary in subject/object position, literal objects.
_SUBJECTS = [URI("a"), URI("b"), URI("p"), BNode("X"), BNode("Y"), SP, SC, TYPE]
_PREDICATES = [URI("p"), URI("q"), URI("a"), SP, SC, TYPE, DOM, RANGE]
_OBJECTS = [URI("a"), URI("c"), BNode("Y"), BNode("Z"), Literal("v"), SC, DOM]


def wild_graphs(max_size: int = 5):
    triples = st.builds(
        Triple,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_OBJECTS),
    )
    return st.lists(triples, min_size=0, max_size=max_size).map(RDFGraph)


class TestGallop:
    @settings(**COMMON)
    @given(sorted_unique(max_size=20), st.integers(min_value=-2, max_value=35))
    def test_agrees_with_bisect(self, col, key):
        n = len(col)
        assert gallop_left(col, key, 0, n) == bisect_left(col, key)
        assert gallop_right(col, key, 0, n) == bisect_right(col, key)

    @settings(**COMMON)
    @given(
        st.lists(st.integers(min_value=0, max_value=20), min_size=1,
                 max_size=20).map(sorted),
        st.integers(min_value=0, max_value=20),
    )
    def test_windowed_search(self, col, key):
        # Sub-window [lo, hi) searches must match bisect on the slice.
        n = len(col)
        lo, hi = n // 3, n - n // 4
        assert gallop_left(col, key, lo, hi) == lo + bisect_left(col[lo:hi], key)
        assert gallop_right(col, key, lo, hi) == lo + bisect_right(col[lo:hi], key)


class TestMergeAlgebra:
    @settings(**COMMON)
    @given(st.lists(st.integers(0, 15)).map(sorted))
    def test_dedup_sorted(self, xs):
        assert dedup_sorted(xs) == sorted(set(xs))

    @settings(**COMMON)
    @given(
        st.sets(st.integers(0, 15)).map(sorted),
        st.sets(st.integers(0, 15)).map(sorted),
    )
    def test_union_and_diff_agree_with_sets(self, a, b):
        assert merge_union_sorted(a, b) == sorted(set(a) | set(b))
        assert merge_diff_sorted(a, b) == sorted(set(a) - set(b))

    @settings(**COMMON)
    @given(
        st.lists(st.integers(0, 10)).map(sorted),  # duplicates allowed
        st.sets(st.integers(0, 10)).map(sorted),
    )
    def test_diff_drops_duplicates_in_left(self, a, b):
        assert merge_diff_sorted(a, b) == sorted(set(a) - set(b))

    @settings(**COMMON)
    @given(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))).map(sorted),
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))).map(sorted),
    )
    def test_merge_join_agrees_with_nested_loop(self, left, right):
        out = []
        tallies = {}
        merge_join_pairs(left, right, out, tallies)
        naive = [
            (x, y) for k, x in left for k2, y in right if k == k2
        ]
        assert sorted(out) == sorted(naive)
        assert tallies.get("emits", 0) == len(naive)


class TestSortedRuns:
    @settings(**COMMON)
    @given(encoded_rows())
    def test_round_trip_vs_set(self, rows):
        rel = SortedRuns.from_rows(rows)
        assert rel.rows() == sorted(set(rows))
        assert len(rel) == len(set(rows))
        assert list(rel) == sorted(set(rows))
        for r in rows:
            assert r in rel
        assert (99, 99, 99) not in rel

    @settings(**COMMON)
    @given(encoded_rows(), encoded_rows())
    def test_set_algebra_vs_sets(self, a, b):
        ra, rb = SortedRuns.from_rows(a), SortedRuns.from_rows(b)
        sa, sb = set(a), set(b)
        assert ra.union(rb).rows() == sorted(sa | sb)
        assert ra.difference(rb).rows() == sorted(sa - sb)
        # new_rows: batch − self, batch may repeat rows.
        batch = sorted(b + b)
        assert ra.new_rows(batch) == sorted(sb - sa)

    @settings(**COMMON)
    @given(encoded_rows(), st.tuples(_IDS, _IDS, _IDS))
    def test_match_range_vs_nested_loop(self, rows, probe):
        rel = SortedRuns.from_rows(rows)
        uniq = set(map(tuple, rows))
        s, p, o = probe
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
            expect = {
                r for r in uniq
                if all(k is None or r[i] == k for i, k in enumerate(pattern))
            }
            assert set(rel.match_range(*pattern)) == expect

    @settings(**COMMON)
    @given(encoded_rows())
    def test_order_views_agree(self, rows):
        rel = SortedRuns.from_rows(rows)
        uniq = set(map(tuple, rows))
        spo = {(a, b, c) for a, b, c in zip(rel.spo.c0, rel.spo.c1, rel.spo.c2)}
        pos = {(c, a, b) for a, b, c in zip(rel.pos.c0, rel.pos.c1, rel.pos.c2)}
        osp = {(b, c, a) for a, b, c in zip(rel.osp.c0, rel.osp.c1, rel.osp.c2)}
        assert spo == pos == osp == uniq
        # groups() tiles each view into maximal constant-key runs.
        for view in (rel.spo, rel.pos, rel.osp):
            tiles = list(view.groups())
            assert [k for k, _, _ in tiles] == sorted(set(view.c0))
            assert all(
                set(view.c0[lo:hi]) == {k} for k, lo, hi in tiles
            )


class TestClosureKernelParity:
    """The kernels against the paper's rule system (Definition 2.7)."""

    @settings(**COMMON)
    @given(wild_graphs())
    def test_three_way_equality_on_wild_graphs(self, g):
        rules = set(rdfs_closure_by_rules(g))
        assert set(rdfs_closure_arrays(g)) == rules
        assert set(rdfs_closure_partitioned(g, shards=2)) == rules

    @settings(**COMMON)
    @given(rdfs_graphs())
    def test_three_way_equality_on_tame_graphs(self, g):
        rules = set(rdfs_closure_by_rules(g))
        assert set(rdfs_closure_arrays(g)) == rules
        assert set(rdfs_closure_partitioned(g, shards=2)) == rules

    @settings(**COMMON)
    @given(wild_graphs())
    def test_arrays_result_is_well_formed(self, g):
        closed = rdfs_closure_arrays(g)
        # _from_trusted skips validation; every row must still be a
        # well-formed Triple (no literal subjects, URI predicates).
        for t in closed:
            assert not isinstance(t.s, Literal)
            assert isinstance(t.p, URI)

    def test_dispatch_counts_increment(self):
        mod = import_module("repro.semantics.closure")

        g = RDFGraph([Triple(URI("a"), SP, URI("b"))])
        before = mod.KERNEL_DISPATCH["arrays"]
        mod.rdfs_closure(g)
        assert mod.KERNEL_DISPATCH["arrays"] == before + 1


class TestLiteralObjects:
    """Rules whose conclusions carry a literal object (one case each)."""

    V = Literal("v")

    def _closes_like_rules(self, triples):
        g = RDFGraph(triples)
        closed = rdfs_closure_arrays(g)
        assert closed == rdfs_closure_by_rules(g)
        return closed

    def test_sc_transitivity_reaches_a_literal(self):
        a, b = URI("a"), URI("b")
        closed = self._closes_like_rules(
            [Triple(b, SC, a), Triple(a, SC, self.V)]
        )
        assert Triple(b, SC, self.V) in closed  # rule (4)

    def test_type_lifts_to_a_literal_superclass(self):
        a, x = URI("a"), URI("x")
        closed = self._closes_like_rules(
            [Triple(x, TYPE, a), Triple(a, SC, self.V)]
        )
        assert Triple(x, TYPE, self.V) in closed  # rule (5)

    def test_literal_domain_and_range_still_type(self):
        p, x, y = URI("p"), URI("x"), URI("y")
        closed = self._closes_like_rules(
            [Triple(p, DOM, self.V), Triple(p, RANGE, self.V),
             Triple(x, p, y)]
        )
        assert Triple(x, TYPE, self.V) in closed  # rule (6)
        assert Triple(y, TYPE, self.V) in closed  # rule (7)

    def test_reflexivity_needs_a_well_formed_instantiation(self):
        a = URI("a")
        closed = self._closes_like_rules(
            [Triple(a, SC, self.V), Triple(a, SP, self.V)]
        )
        # (11)/(13) would also conclude ("v" sp "v") / ("v" sc "v").
        assert Triple(a, SC, a) not in closed
        assert Triple(a, SP, a) not in closed
