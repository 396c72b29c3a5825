"""Streaming bulk ingest: chunked parse → encode → sorted runs.

The scale path for loading large N-Triples files:
:func:`load_ntriples` streams a file in chunks, dictionary-encodes each
chunk into one shared term dictionary, and lands rows as sorted runs in
a memory-bounded :class:`RunPool` — ready for the array-native closure
kernel (:func:`repro.semantics.closure.rdfs_closure_rows`) without ever
materializing a boxed graph.
"""

from .loader import (
    DEFAULT_CHUNK_LINES,
    DEFAULT_MAX_MEMORY_MB,
    IngestResult,
    load_ntriples,
)
from .spill import ROW_BYTES, SPILL_BLOCK_ROWS, RunPool, SpilledRun

__all__ = [
    "load_ntriples",
    "IngestResult",
    "RunPool",
    "SpilledRun",
    "DEFAULT_CHUNK_LINES",
    "DEFAULT_MAX_MEMORY_MB",
    "ROW_BYTES",
    "SPILL_BLOCK_ROWS",
]
