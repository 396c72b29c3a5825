"""Streaming N-Triples bulk loader.

The one-shot :func:`repro.rdfio.parse_ntriples` path materializes the
whole text, the whole triple list and a fully indexed
:class:`~repro.core.graph.RDFGraph` — three copies of the data, none of
them the representation the closure kernel wants.  This loader is the
scale path: it reads the file in chunks of lines, parses and
dictionary-encodes each chunk into one shared vocabulary-seeded
:class:`~repro.core.interning.TermDict`, and lands the result directly
as sorted runs of ``(int, int, int)`` rows in a budgeted
:class:`~repro.ingest.spill.RunPool` — the exact input of
:func:`repro.semantics.closure.rdfs_closure_rows`.  Boxed terms exist
only transiently inside a chunk.

Terms are interned in file order, so the dictionary's IDs — and hence
the encoded rows — are the same for every ``chunk_lines``, which the
loader suite (``tests/test_partitioned.py``) pins down.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from itertools import islice
from typing import IO, Iterable, Iterator, List, Optional, Tuple, Union

from ..core.columns import SortedRuns
from ..core.graph import RDFGraph
from ..core.interning import TermDict
from ..obs import OBS
from ..obs.progress import ProgressReporter, current_progress
from ..rdfio.ntriples import ParseIssue, iter_ntriples
from .spill import RunPool

__all__ = [
    "IngestResult",
    "load_ntriples",
    "DEFAULT_CHUNK_LINES",
    "DEFAULT_MAX_MEMORY_MB",
]

#: Lines per parse chunk.  Large enough that per-chunk overhead (sort,
#: run bookkeeping) amortizes; small enough that a chunk's boxed terms
#: are a bounded transient.
DEFAULT_CHUNK_LINES = 50_000

#: Default budget for the pending-run pool before runs spill to disk.
DEFAULT_MAX_MEMORY_MB = 512


@dataclass(frozen=True)
class IngestResult:
    """What a bulk load produced, still in encoded form.

    ``runs`` is the loaded relation (sorted, duplicate-free) over
    ``terms``; decode lazily via :meth:`graph` only when a term-level
    view is actually needed — at 10⁶ triples the boxed graph costs more
    than the load did.
    """

    terms: TermDict
    runs: SortedRuns
    lines: int
    chunks: int
    issues: Tuple[ParseIssue, ...]
    spilled_runs: int

    @property
    def triples(self) -> int:
        """Distinct triples loaded."""
        return len(self.runs)

    @property
    def ok(self) -> bool:
        """True when no line was skipped."""
        return not self.issues

    def graph(self) -> RDFGraph:
        """Decode to a term-level graph (boundary use only)."""
        return RDFGraph._from_trusted(self.terms.decode_rows(self.runs.rows()))

    def __repr__(self) -> str:
        return (
            f"IngestResult({len(self.runs)} triples, {self.lines} lines, "
            f"{self.chunks} chunks, {len(self.issues)} skipped, "
            f"{self.spilled_runs} spilled runs)"
        )


def _chunks(
    lines: Iterator[str], chunk_lines: int
) -> Iterator[Tuple[List[str], int]]:
    """``(lines, first_line_number)`` per chunk of *chunk_lines* lines."""
    start = 1
    while True:
        chunk = list(islice(lines, chunk_lines))
        if not chunk:
            return
        yield chunk, start
        start += len(chunk)


def _line_iter(source) -> Tuple[Iterator[str], Optional[IO]]:
    """An iterator of lines from a path, file object or line iterable.

    Strings and path-likes are opened as files (closed by the caller
    via the returned handle); any other iterable is consumed as lines.
    """
    if isinstance(source, (str, os.PathLike)):
        f = open(source, "r", encoding="utf-8")
        return iter(f), f
    return iter(source), None


def load_ntriples(
    source: Union[str, os.PathLike, IO[str], Iterable[str]],
    chunk_lines: int = DEFAULT_CHUNK_LINES,
    strict: bool = True,
    max_memory_mb: Optional[int] = DEFAULT_MAX_MEMORY_MB,
    term_dict: Optional[TermDict] = None,
    tmp_dir: Optional[str] = None,
    progress: Optional[ProgressReporter] = None,
) -> IngestResult:
    """Bulk-load N-Triples-style input into encoded sorted runs.

    *source* is a filesystem path, an open text file, or any iterable
    of lines, parsed *chunk_lines* (≥ 1) lines at a time.
    ``strict=False`` skips malformed lines and reports them in
    ``result.issues``.  ``max_memory_mb`` bounds the pending-run pool
    (``None`` disables spilling); *term_dict* lets a caller accumulate
    several files into one shared dict.

    *progress* (or the ambient reporter from
    :func:`repro.obs.progress.progress_scope`) receives one
    rate-limited heartbeat per chunk: lines, chunks, pending rows,
    spills, lines/s.
    """
    if chunk_lines < 1:
        raise ValueError(f"chunk_lines must be >= 1, got {chunk_lines}")
    terms = term_dict if term_dict is not None else TermDict()
    encodes_before = terms.encodes
    lines, handle = _line_iter(source)
    issues: List[ParseIssue] = []
    total_lines = 0
    chunks = 0
    max_bytes = None if max_memory_mb is None else max_memory_mb * (1 << 20)
    pool = RunPool(max_bytes=max_bytes, tmp_dir=tmp_dir)
    if progress is None:
        progress = current_progress()
    t0 = time.perf_counter()

    def heartbeat(force: bool = False) -> None:
        if progress is None:
            return
        elapsed = time.perf_counter() - t0
        progress.report(
            "ingest",
            force=force,
            lines=total_lines,
            chunks=chunks,
            rows=pool.in_memory_rows + pool.spilled_rows,
            spills=pool.spills,
            lines_per_s=round(total_lines / elapsed) if elapsed > 0 else 0,
        )

    try:
        with OBS.span("ingest.load") as span:
            registry = OBS.registry
            for chunk, start in _chunks(lines, chunk_lines):
                chunks += 1
                total_lines += len(chunk)
                skipped_before = len(issues)
                with registry.timer("ingest.chunk_parse_ms"):
                    rows = terms.encode_rows(
                        iter_ntriples(
                            chunk, strict=strict, issues=issues, start=start
                        )
                    )
                    rows = sorted(set(rows))
                pool.add(rows)
                if OBS.enabled:
                    registry.inc("ingest.lines", len(chunk))
                    registry.inc("ingest.chunks")
                    registry.inc(
                        "ingest.skipped_lines", len(issues) - skipped_before
                    )
                heartbeat()
            merged = pool.merge()
            spills = pool.spills
            span.annotate(lines=total_lines, rows=len(merged), spills=spills)
    finally:
        pool.close()
        if handle is not None:
            handle.close()
    heartbeat(force=True)
    if OBS.enabled:
        registry = OBS.registry
        registry.inc("ingest.rows", len(merged))
        registry.inc("ingest.spilled_runs", spills)
        registry.inc("interning.encode_calls", terms.encodes - encodes_before)
    return IngestResult(
        terms=terms,
        runs=SortedRuns(merged),
        lines=total_lines,
        chunks=chunks,
        issues=tuple(issues),
        spilled_runs=spills,
    )
