"""Memory-bounded sorted-run pooling with temp-file spill.

The streaming loader (:mod:`repro.ingest.loader`) lands each parsed
chunk as one sorted duplicate-free run of encoded rows.  At the
million-triple scale the pool of pending runs is the dominant resident
cost, so :class:`RunPool` enforces a byte budget: when the estimated
in-memory footprint exceeds it, the largest pending run is serialized
to a temp file as one flat ``array('q')`` (the
:func:`repro.core.columns.rows_to_array` layout, written with
``array.tofile``) and dropped from memory.  The final
:meth:`RunPool.merge` is a k-way ``heapq.merge`` with
adjacent-duplicate suppression that *streams* spilled runs back in
fixed-size blocks, so peak memory during the merge is one output list
plus one block per spilled file — never the full spilled volume.
"""

from __future__ import annotations

import heapq
import os
import shutil
import tempfile
from array import array
from typing import Iterator, List, Optional

from ..core.columns import Row, merge_union_many, rows_to_array
from ..robustness.faultinject import FAULTS

__all__ = ["RunPool", "SpilledRun", "ROW_BYTES", "SPILL_BLOCK_ROWS"]

#: Conservative estimate of the resident cost of one in-memory row: a
#: 3-tuple of ints is ~120 bytes on CPython (tuple header, three object
#: pointers, and the amortized share of non-cached int objects).  The
#: budget math only needs to be right within a small constant factor.
ROW_BYTES = 120

#: Rows per block when streaming a spilled run back during the merge.
SPILL_BLOCK_ROWS = 65536


class SpilledRun:
    """One sorted duplicate-free run parked on disk as a flat array."""

    __slots__ = ("path", "n_rows")

    def __init__(self, path: str, n_rows: int):
        self.path = path
        self.n_rows = n_rows

    def iter_rows(self, block_rows: int = SPILL_BLOCK_ROWS) -> Iterator[Row]:
        """Stream the run back in *block_rows*-sized reads."""
        with open(self.path, "rb") as f:
            remaining = self.n_rows
            while remaining:
                take = min(block_rows, remaining)
                flat = array("q")
                flat.fromfile(f, 3 * take)
                it = iter(flat)
                yield from zip(it, it, it)
                remaining -= take

    def load(self) -> List[Row]:
        """The whole run as a row list (tests and small runs)."""
        return list(self.iter_rows())

    def __repr__(self) -> str:
        return f"SpilledRun({self.n_rows} rows, {self.path!r})"


class RunPool:
    """A budgeted pool of sorted duplicate-free runs awaiting merge.

    ``max_bytes=None`` disables spilling (everything stays in memory).
    The pool owns its spill directory and removes it on :meth:`close`
    (also available as a context manager).
    """

    def __init__(
        self,
        max_bytes: Optional[int] = None,
        tmp_dir: Optional[str] = None,
    ):
        self._runs: List[List[Row]] = []
        self._spilled: List[SpilledRun] = []
        self._in_memory_rows = 0
        self._max_bytes = max_bytes
        self._tmp_parent = tmp_dir
        self._dir: Optional[str] = None
        #: Number of runs spilled to disk (obs: ``ingest.spilled_runs``).
        self.spills = 0
        self.spilled_rows = 0

    # -- lifecycle ------------------------------------------------------

    def __enter__(self) -> "RunPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Remove the spill directory and all spilled files."""
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)
            self._dir = None
        self._spilled = []

    def _spill_dir(self) -> str:
        if self._dir is None:
            self._dir = tempfile.mkdtemp(
                prefix="repro-spill-", dir=self._tmp_parent
            )
        return self._dir

    # -- the pool protocol ----------------------------------------------

    @property
    def in_memory_rows(self) -> int:
        return self._in_memory_rows

    @property
    def pending_runs(self) -> int:
        return len(self._runs) + len(self._spilled)

    def add(self, sorted_rows: List[Row]) -> None:
        """Add one sorted duplicate-free run, spilling if over budget."""
        if not sorted_rows:
            return
        self._runs.append(sorted_rows)
        self._in_memory_rows += len(sorted_rows)
        if self._max_bytes is None:
            return
        while self._runs and self._in_memory_rows * ROW_BYTES > self._max_bytes:
            self._spill_largest()

    def _spill_largest(self) -> None:
        # The largest run buys the most relief per file handle and per
        # eventual streamed re-read.
        i = max(range(len(self._runs)), key=lambda k: len(self._runs[k]))
        run = self._runs.pop(i)
        self._in_memory_rows -= len(run)
        path = os.path.join(self._spill_dir(), f"run-{self.spills:05d}.bin")
        try:
            with open(path, "wb") as f:
                if FAULTS.enabled:
                    FAULTS.hit("ingest.spill.write")
                rows_to_array(run).tofile(f)
        except BaseException:
            # A failed spill (disk full, interrupt, injected fault) must
            # not lose the run *or* leave a partial file for the merge
            # to trip over: put the run back in memory, delete the
            # half-written file, and let the caller see the error.
            self._runs.append(run)
            self._in_memory_rows += len(run)
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        self._spilled.append(SpilledRun(path, len(run)))
        self.spills += 1
        self.spilled_rows += len(run)

    def merge(self) -> List[Row]:
        """K-way merge of every pending run into one sorted unique list.

        Spilled runs are streamed block-wise, so the transient cost is
        the output list plus one block per spilled file.
        """
        if not self._spilled:
            return merge_union_many(self._runs)
        iters = [iter(r) for r in self._runs]
        iters.extend(s.iter_rows() for s in self._spilled)
        out: List[Row] = []
        push = out.append
        prev = None
        for row in heapq.merge(*iters):
            if row != prev:
                push(row)
                prev = row
        return out

    def __repr__(self) -> str:
        return (
            f"RunPool({len(self._runs)} in-memory runs "
            f"({self._in_memory_rows} rows), {len(self._spilled)} spilled)"
        )
