"""Checkpoint segment files: one graph as SPO/POS/OSP sorted runs.

A checkpoint parks each named graph's committed rows in three flat
``array('q')`` files — the spill layout of
:func:`repro.core.columns.rows_to_array` (3·n interleaved values per
ordering), one file per key ordering:

.. code-block:: text

    <base>.spo.bin   rows as (s, p, o), sorted  — the canonical run
    <base>.pos.bin   rows as (p, o, s), sorted  — predicate-prefix scans
    <base>.osp.bin   rows as (o, s, p), sorted  — object-prefix scans

Reloading therefore costs one ``frombytes`` pass per ordering: the SPO
file rebuilds the :class:`~repro.core.columns.SortedRuns` row list
without a re-sort, and the POS/OSP files are de-interleaved straight
into that relation's lazy :class:`~repro.core.columns.OrderView`
caches, so a reopened store's columnar reads start warm.

Each file's CRC32 and row count live in the store manifest (segments
are immutable once the manifest naming them is committed, so the
checksum is computed once at write time); :func:`read_segment`
verifies them and raises :class:`~repro.store.backend.StorageError` on
mismatch rather than serving silently corrupt rows.
"""

from __future__ import annotations

import os
import zlib
from array import array
from typing import Dict, List

from ...core.columns import OrderView, SortedRuns, rows_from_array, rows_to_array
from ...robustness.faultinject import FAULTS
from ..backend import StorageError

__all__ = ["write_segment", "read_segment", "SEGMENT_ORDERINGS"]

#: The three key orderings, in write order.
SEGMENT_ORDERINGS = ("spo", "pos", "osp")


def _permuted(rows: List, ordering: str) -> List:
    if ordering == "spo":
        return rows
    if ordering == "pos":
        return sorted((p, o, s) for s, p, o in rows)
    return sorted((o, s, p) for s, p, o in rows)


def write_segment(base, rows: List) -> Dict[str, int]:
    """Write one graph's sorted unique rows as three ordering files.

    Returns the manifest metadata: row count plus per-ordering CRC32.
    Files are fsynced before return; the caller commits them by
    renaming the manifest that names them.  The
    ``durable.checkpoint.mid_compaction`` fault site fires between
    files — the window where a crash leaves a half-written segment
    generation that recovery must ignore.
    """
    base = os.fspath(base)
    meta: Dict[str, int] = {"rows": len(rows)}
    for ordering in SEGMENT_ORDERINGS:
        data = rows_to_array(_permuted(rows, ordering)).tobytes()
        meta[f"crc_{ordering}"] = zlib.crc32(data)
        with open(f"{base}.{ordering}.bin", "wb") as f:
            f.write(data)
            f.flush()
            os.fsync(f.fileno())
        if FAULTS.enabled:
            FAULTS.hit("durable.checkpoint.mid_compaction")
    return meta


def _read_ordering(base: str, ordering: str, meta: Dict[str, int]) -> array:
    path = f"{base}.{ordering}.bin"
    try:
        with open(path, "rb") as f:
            data = f.read()
    except OSError as err:
        raise StorageError(f"segment file missing/unreadable: {path} ({err})")
    expected = meta.get(f"crc_{ordering}")
    if expected is not None and zlib.crc32(data) != expected:
        raise StorageError(f"segment file corrupt (CRC mismatch): {path}")
    if len(data) != 24 * meta["rows"]:
        raise StorageError(
            f"segment file truncated: {path} "
            f"({len(data)} bytes for {meta['rows']} rows)"
        )
    flat = array("q")
    flat.frombytes(data)
    return flat


def read_segment(base, meta: Dict[str, int]) -> SortedRuns:
    """Reload one segment into a :class:`SortedRuns` with warm views.

    The SPO file is the canonical row list (already sorted and
    duplicate-free, exactly the trusted :class:`SortedRuns`
    constructor's contract); the POS/OSP files are installed as pre-built order
    views so no reopened-store read pays a re-sort.
    """
    base = os.fspath(base)
    if meta["rows"] == 0:
        return SortedRuns([])
    spo = _read_ordering(base, "spo", meta)
    runs = SortedRuns(rows_from_array(spo))
    pos = _read_ordering(base, "pos", meta)
    osp = _read_ordering(base, "osp", meta)
    runs._pos = OrderView(pos[0::3], pos[1::3], pos[2::3])
    runs._osp = OrderView(osp[0::3], osp[1::3], osp[2::3])
    return runs
