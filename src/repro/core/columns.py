"""Sorted-run columnar relations over dictionary-encoded triples.

This module is the array-native substrate under the ``arrays`` closure
kernel, the planner's candidate-domain construction and the Datalog
engine's batch deduplication (ROADMAP item 5).  A :class:`SortedRuns`
relation holds a set of encoded ``(s, p, o)`` rows as **sorted flat
``array('q')`` columns** in up to three permutation orders — SPO, POS
and OSP — each order exposing contiguous *runs* per key prefix:

.. code-block:: text

        SPO order                POS order                OSP order
    s: [0 0 1 1 1 4]         p: [0 0 0 2 2 5]         o: [1 1 3 3 7 9]
    p: [0 2 0 0 5 2]         o: [1 3 9 1 7 3]         s: [0 1 0 4 1 1]
    o: [1 3 1 3 3 7]         s: [0 1 1 0 1 4]         p: [0 0 2 2 2 5]
       └─┴─ run s=0             └─┴─┴─ run p=0            └─┴─ run o=1

Every lookup with a bound prefix is a pair of galloping binary searches
(:func:`gallop_left` / :func:`gallop_right`) returning a ``[lo, hi)``
slice; set algebra is sorted-merge (:func:`merge_union_sorted`,
:func:`merge_diff_sorted`) and joins are leapfrog-style two-relation
merges over sorted key groups (:func:`merge_join_pairs`) — no per-tuple
hashing anywhere.  The SPO columns are the canonical storage; the POS
and OSP permutations are materialized lazily on first use, so a
relation that is only ever iterated (e.g. a closure result headed
straight to decode) never pays for them.
"""

from __future__ import annotations

import heapq
from array import array
from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

Row = Tuple[int, int, int]
Pair = Tuple[int, int]

__all__ = [
    "SortedRuns",
    "OrderView",
    "gallop_left",
    "gallop_right",
    "dedup_sorted",
    "merge_union_sorted",
    "merge_diff_sorted",
    "merge_union_many",
    "merge_join_pairs",
    "rows_to_array",
    "rows_from_array",
]


# ----------------------------------------------------------------------
# Galloping binary search
# ----------------------------------------------------------------------

def gallop_left(col: Sequence[int], key: int, lo: int, hi: int) -> int:
    """First index in ``col[lo:hi]`` (sorted ascending) with value >= key.

    Gallops from *lo* in doubling steps before bisecting, so a probe
    that lands near the start of the window — the common case when a
    merge walks keys in ascending order — costs O(log distance) rather
    than O(log window).
    """
    if lo >= hi or col[lo] >= key:
        return lo
    # Invariant: col[lo + step_prev] < key.  Double until overshoot.
    step = 1
    while lo + step < hi and col[lo + step] < key:
        step <<= 1
    left = lo + (step >> 1)  # last probe known to be < key
    right = min(lo + step, hi)
    while left < right:
        mid = (left + right) >> 1
        if col[mid] < key:
            left = mid + 1
        else:
            right = mid
    return left


def gallop_right(col: Sequence[int], key: int, lo: int, hi: int) -> int:
    """First index in ``col[lo:hi]`` (sorted ascending) with value > key."""
    if lo >= hi or col[lo] > key:
        return lo
    step = 1
    while lo + step < hi and col[lo + step] <= key:
        step <<= 1
    left = lo + (step >> 1)
    right = min(lo + step, hi)
    while left < right:
        mid = (left + right) >> 1
        if col[mid] <= key:
            left = mid + 1
        else:
            right = mid
    return left


# ----------------------------------------------------------------------
# Sorted-merge set algebra over sorted row sequences
# ----------------------------------------------------------------------

def dedup_sorted(rows: List) -> List:
    """Drop adjacent duplicates from an already-sorted list (new list)."""
    if not rows:
        return rows
    out = [rows[0]]
    push = out.append
    prev = rows[0]
    for r in rows:
        if r != prev:
            push(r)
            prev = r
    return out


def merge_union_sorted(a: List, b: List) -> List:
    """Union of two sorted duplicate-free lists, one merge pass."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    out: List = []
    push = out.append
    i = j = 0
    la, lb = len(a), len(b)
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            push(x)
            i += 1
        elif x > y:
            push(y)
            j += 1
        else:
            push(x)
            i += 1
            j += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return out


def merge_diff_sorted(a: List, b: List) -> List:
    """``a − b`` for sorted lists; *a* may contain duplicates (dropped)."""
    out: List = []
    push = out.append
    i = j = 0
    la, lb = len(a), len(b)
    prev = None
    while i < la and j < lb:
        x, y = a[i], b[j]
        if x < y:
            if x != prev:
                push(x)
                prev = x
            i += 1
        elif x > y:
            j += 1
        else:
            prev = x  # suppress later duplicates of a matched element
            i += 1
    while i < la:
        x = a[i]
        if x != prev:
            push(x)
            prev = x
        i += 1
    return out


def merge_union_many(sorted_lists: Sequence[List]) -> List:
    """Union of many sorted lists (duplicates within/across allowed).

    Binary merges for up to two inputs; a ``heapq.merge`` k-way pass
    with adjacent-duplicate suppression beyond that — the merge step of
    the spill pool (:mod:`repro.ingest.spill`).
    """
    live = [lst for lst in sorted_lists if lst]
    if not live:
        return []
    if len(live) == 1:
        return dedup_sorted(live[0])
    if len(live) == 2:
        return merge_union_sorted(dedup_sorted(live[0]), dedup_sorted(live[1]))
    out: List = []
    push = out.append
    prev = None
    for row in heapq.merge(*live):
        if row != prev:
            push(row)
            prev = row
    return out


# ----------------------------------------------------------------------
# Flat-array (de)serialization — the spill format
# ----------------------------------------------------------------------

def rows_to_array(rows: Sequence[Row]) -> array:
    """Pack row tuples into one flat ``array('q')`` of ``3 * len(rows)``
    values (s, p, o interleaved) — the on-disk spill representation
    written with ``array.tofile`` and read back with ``array.fromfile``.
    """
    flat = array("q", bytes(24 * len(rows)))
    i = 0
    for s, p, o in rows:
        flat[i] = s
        flat[i + 1] = p
        flat[i + 2] = o
        i += 3
    return flat


def rows_from_array(flat: array) -> List[Row]:
    """Rebuild row tuples from a flat interleaved ``array('q')``."""
    if len(flat) % 3:
        raise ValueError(f"flat row array length {len(flat)} not a multiple of 3")
    it = iter(flat)
    return list(zip(it, it, it))


# ----------------------------------------------------------------------
# Leapfrog merge-join over sorted pair lists
# ----------------------------------------------------------------------

def merge_join_pairs(
    left: List[Pair],
    right: List[Pair],
    out: List[Pair],
    tallies: Optional[dict] = None,
) -> None:
    """Leapfrog two-relation merge-join: emit ``(x, y)`` for every
    ``(k, x) ∈ left`` and ``(k, y) ∈ right`` sharing a key *k*.

    Both inputs are sorted by key (first component).  The two cursors
    leapfrog: whichever side is behind seeks forward to the other's
    key, matching key groups produce their cross product.  ``out`` is
    extended in place so callers can accumulate several joins into one
    batch; *tallies* (a plain dict) collects ``probes``/``emits``
    counts for the obs flush at the kernel boundary.
    """
    i = j = 0
    ln, rn = len(left), len(right)
    probes = emits = 0
    push = out.append
    while i < ln and j < rn:
        k = left[i][0]
        k2 = right[j][0]
        probes += 1
        if k < k2:
            # Seek left forward to k2 (gallop: doubling probe then scan).
            i += 1
            while i < ln and left[i][0] < k2:
                i += 1
        elif k2 < k:
            j += 1
            while j < rn and right[j][0] < k:
                j += 1
        else:
            i2 = i + 1
            while i2 < ln and left[i2][0] == k:
                i2 += 1
            j2 = j + 1
            while j2 < rn and right[j2][0] == k:
                j2 += 1
            for x in range(i, i2):
                a = left[x][1]
                for y in range(j, j2):
                    push((a, right[y][1]))
            emits += (i2 - i) * (j2 - j)
            i, j = i2, j2
    if tallies is not None:
        tallies["probes"] = tallies.get("probes", 0) + probes
        tallies["emits"] = tallies.get("emits", 0) + emits


# ----------------------------------------------------------------------
# Order views and the relation type
# ----------------------------------------------------------------------

class OrderView:
    """One sort order of a relation: three parallel sorted columns.

    ``c0``/``c1``/``c2`` hold the rows permuted into this order's
    position sequence (e.g. the POS view's ``c0`` is the predicate
    column).  Rows are sorted lexicographically by ``(c0, c1, c2)``, so
    every bound prefix is one contiguous ``[lo, hi)`` run.
    """

    __slots__ = ("c0", "c1", "c2", "n")

    def __init__(self, c0: array, c1: array, c2: array):
        self.c0 = c0
        self.c1 = c1
        self.c2 = c2
        self.n = len(c0)

    def range1(self, k0: int, lo: int = 0, hi: Optional[int] = None) -> Tuple[int, int]:
        """The ``[lo, hi)`` run of rows whose first column equals *k0*."""
        if hi is None:
            hi = self.n
        left = gallop_left(self.c0, k0, lo, hi)
        if left == hi or self.c0[left] != k0:
            return left, left
        return left, gallop_right(self.c0, k0, left, hi)

    def range2(self, k0: int, k1: int) -> Tuple[int, int]:
        """The run with first column *k0* and second column *k1*."""
        lo, hi = self.range1(k0)
        if lo == hi:
            return lo, lo
        left = gallop_left(self.c1, k1, lo, hi)
        if left == hi or self.c1[left] != k1:
            return left, left
        return left, gallop_right(self.c1, k1, left, hi)

    def pairs12(self, lo: int, hi: int) -> List[Pair]:
        """``(c1, c2)`` pairs of the run — sorted, since c0 is constant."""
        return list(zip(self.c1[lo:hi], self.c2[lo:hi]))

    def pairs21(self, lo: int, hi: int) -> List[Pair]:
        """``(c2, c1)`` pairs of the run (not sorted; sort if needed)."""
        return list(zip(self.c2[lo:hi], self.c1[lo:hi]))

    def col2_values(self, lo: int, hi: int) -> array:
        return self.c2[lo:hi]

    def groups(self) -> Iterator[Tuple[int, int, int]]:
        """Yield ``(key, lo, hi)`` for each distinct first-column run."""
        c0 = self.c0
        n = self.n
        lo = 0
        while lo < n:
            k = c0[lo]
            hi = lo + 1
            while hi < n and c0[hi] == k:
                hi += 1
            yield k, lo, hi
            lo = hi


def _columns_from_rows(rows: Sequence[Tuple[int, int, int]], a: int, b: int, c: int):
    c0 = array("q", bytes(8 * len(rows)))
    c1 = array("q", bytes(8 * len(rows)))
    c2 = array("q", bytes(8 * len(rows)))
    for i, r in enumerate(rows):
        c0[i] = r[a]
        c1[i] = r[b]
        c2[i] = r[c]
    return c0, c1, c2


class SortedRuns:
    """An immutable relation of encoded triples as sorted flat columns.

    The canonical storage is the SPO permutation; the POS and OSP
    permutations — and the tuple *view* used by sorted-merge algebra —
    are derived lazily and cached.  All constructors deduplicate, so a
    relation is always a *set* of rows.
    """

    __slots__ = ("_rows", "_spo", "_pos", "_osp")

    def __init__(self, sorted_unique_rows: List[Row]):
        """Trusted constructor: *sorted_unique_rows* must be sorted and
        duplicate-free (use :meth:`from_rows` otherwise)."""
        self._rows: List[Row] = sorted_unique_rows
        self._spo: Optional[OrderView] = None
        self._pos: Optional[OrderView] = None
        self._osp: Optional[OrderView] = None

    @classmethod
    def from_rows(cls, rows: Iterable[Row]) -> "SortedRuns":
        return cls(sorted(set(map(tuple, rows))))

    # -- view accessors -------------------------------------------------

    def rows(self) -> List[Row]:
        """The sorted duplicate-free row list (the relation's run view)."""
        return self._rows

    @property
    def spo(self) -> OrderView:
        view = self._spo
        if view is None:
            view = OrderView(*_columns_from_rows(self._rows, 0, 1, 2))
            self._spo = view
        return view

    @property
    def pos(self) -> OrderView:
        view = self._pos
        if view is None:
            view = OrderView(
                *_columns_from_rows(sorted(
                    (p, o, s) for s, p, o in self._rows
                ), 0, 1, 2)
            )
            self._pos = view
        return view

    @property
    def osp(self) -> OrderView:
        view = self._osp
        if view is None:
            view = OrderView(
                *_columns_from_rows(sorted(
                    (o, s, p) for s, p, o in self._rows
                ), 0, 1, 2)
            )
            self._osp = view
        return view

    # -- set protocol ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Row]:
        return iter(self._rows)

    def __contains__(self, row) -> bool:
        row = tuple(row)
        view = self.spo
        lo, hi = view.range2(row[0], row[1])
        if lo == hi:
            return False
        return gallop_right(view.c2, row[2], lo, hi) > gallop_left(
            view.c2, row[2], lo, hi
        )

    def __eq__(self, other) -> bool:
        if isinstance(other, SortedRuns):
            return self._rows == other._rows
        return NotImplemented

    def __repr__(self) -> str:
        return f"SortedRuns({len(self._rows)} rows)"

    # -- sorted-merge algebra -------------------------------------------

    def union_sorted(self, sorted_new_rows: List[Row]) -> "SortedRuns":
        """Union with a sorted duplicate-free batch, one merge pass."""
        if not sorted_new_rows:
            return self
        return SortedRuns(merge_union_sorted(self._rows, sorted_new_rows))

    def union(self, other: "SortedRuns") -> "SortedRuns":
        return self.union_sorted(other._rows)

    def new_rows(self, sorted_batch: List[Row]) -> List[Row]:
        """``batch − self`` by sorted-merge difference.

        The batch may contain duplicates (rule emissions usually do);
        the result is sorted and duplicate-free — exactly the delta a
        semi-naive round feeds back.
        """
        return merge_diff_sorted(sorted_batch, self._rows)

    def difference(self, other: "SortedRuns") -> "SortedRuns":
        return SortedRuns(merge_diff_sorted(self._rows, other._rows))

    # -- pattern ranges -------------------------------------------------

    def match_range(self, s=None, p=None, o=None):
        """Rows matching a bound prefix, as an iterator over row tuples.

        Dispatches to whichever order makes the bound positions a
        prefix; the (s, o) shape has no contiguous run and falls back
        to filtering the OSP object run.
        """
        if s is None and p is None and o is None:
            return iter(self._rows)
        if p is None and o is None:  # s__
            view = self.spo
            lo, hi = view.range1(s)
            return zip(view.c0[lo:hi], view.c1[lo:hi], view.c2[lo:hi])
        if s is None and o is None:  # _p_
            view = self.pos
            lo, hi = view.range1(p)
            return (
                (sv, p, ov)
                for ov, sv in zip(view.c1[lo:hi], view.c2[lo:hi])
            )
        if s is None and p is None:  # __o
            view = self.osp
            lo, hi = view.range1(o)
            return (
                (sv, pv, o)
                for sv, pv in zip(view.c1[lo:hi], view.c2[lo:hi])
            )
        if o is None:  # sp_
            view = self.spo
            lo, hi = view.range2(s, p)
            return ((s, p, ov) for ov in view.c2[lo:hi])
        if s is None:  # _po
            view = self.pos
            lo, hi = view.range2(p, o)
            return ((sv, p, o) for sv in view.c2[lo:hi])
        if p is None:  # s_o
            view = self.osp
            lo, hi = view.range2(o, s)
            return ((s, pv, o) for pv in view.c2[lo:hi])
        return iter(((s, p, o),)) if (s, p, o) in self else iter(())
