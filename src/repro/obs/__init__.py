"""Observability: one metrics registry and tracer for the whole stack.

The paper's complexity theorems are statements about *where the work
goes* — homomorphism backtracking (Theorems 2.9/2.10), closure fixpoint
rounds (Theorem 3.6), core search (Theorem 3.12).  This package makes
that work visible: the matching planner, the Datalog engine, the staged
closure and the triple store all report to one process-global
:class:`~repro.obs.metrics.MetricsRegistry` and
:class:`~repro.obs.tracing.Tracer` pair, held in :data:`OBS`.

Instrumentation is **off by default** and near-free while off: hot
paths guard every report with ``if OBS.enabled:`` (one attribute read),
and the disabled registry/tracer singletons no-op without allocating.
Turn it on around a region of interest::

    from repro import obs

    with obs.instrumentation() as (registry, tracer):
        entails(g1, g2)
    print(registry.counter("planner.backtracks"))
    print(tracer.describe())

or globally with :func:`enable` / :func:`disable`.  The CLI's
``--profile`` flag and the benchmark report's metrics snapshots are
thin wrappers over exactly this API.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Tuple

from .export import chrome_trace, prometheus_text, write_chrome_trace
from .metrics import DEFAULT_BUCKETS, Histogram, MetricsRegistry
from .progress import (
    ProgressReporter,
    current_progress,
    peak_rss_bytes,
    progress_scope,
)
from .tracing import TraceEvent, Tracer

__all__ = [
    "OBS",
    "MetricsRegistry",
    "Histogram",
    "Tracer",
    "TraceEvent",
    "DEFAULT_BUCKETS",
    "STANDARD_COUNTERS",
    "ProgressReporter",
    "current_progress",
    "progress_scope",
    "peak_rss_bytes",
    "prometheus_text",
    "chrome_trace",
    "write_chrome_trace",
    "enable",
    "disable",
    "is_enabled",
    "get_registry",
    "get_tracer",
    "instrumentation",
]

#: Headline counters declared (at 0) whenever instrumentation turns on,
#: so a profile over any command shows the full shared-registry shape
#: even for layers the command never touched.
STANDARD_COUNTERS = (
    "planner.prepared",
    "planner.strategy.ground",
    "planner.strategy.semijoin",
    "planner.strategy.backtrack",
    "planner.backtracks",
    "planner.pruned_empty",
    "planner.solutions",
    "closure.rounds",
    "closure.derived_triples",
    "closure.dispatch.arrays",
    "closure.kernel.arrays.batch_rows",
    "closure.kernel.arrays.delta_rows",
    "columns.mergejoin.probes",
    "columns.mergejoin.emits",
    "interning.encode_calls",
    "interning.decode_calls",
    "ingest.lines",
    "ingest.chunks",
    "ingest.rows",
    "ingest.skipped_lines",
    "ingest.spilled_runs",
    "datalog.rounds",
    "datalog.derived",
    "datalog.batch_rows",
    "datalog.dred.overdeleted",
    "datalog.dred.rederived",
    "store.dataset_cache.hit",
    "store.dataset_cache.miss",
    "store.closure_cache.hit",
    "store.closure_cache.miss",
    "store.nf_cache.hit",
    "store.nf_cache.miss",
    "store.maintenance.incremental_insert",
    "store.maintenance.incremental_delete",
    "store.maintenance.recomputed",
    "store.recovered_ops",
    "wal.appends",
    "wal.fsyncs",
    "wal.terms.appends",
    "wal.terms.fsyncs",
    "wal.recovered_batches",
    "wal.torn_tail_bytes",
    "wal.repaired_commits",
    "durable.checkpoints",
    "query.cache.hits",
    "query.cache.misses",
    "query.cache.containment_hits",
    "query.cache.invalidations",
    "query.cache.evictions",
    "guard.checks",
    "guard.steps",
    "guard.trips.deadline",
    "guard.trips.steps",
    "guard.trips.results",
    "guard.trips.cancelled",
    "guard.degraded_answers",
)


class Observability:
    """The process-global switchboard instrumented code reads.

    ``enabled`` is the single flag hot paths check; ``registry`` and
    ``tracer`` are never None (disabled singletons while off), so
    guarded code may use them without re-checking.
    """

    __slots__ = ("enabled", "registry", "tracer")

    def __init__(self):
        self.enabled = False
        self.registry = MetricsRegistry.disabled()
        self.tracer = Tracer.disabled()

    def span(self, name: str, **attrs):
        """Convenience: a tracer span, or the shared no-op while off."""
        return self.tracer.span(name, **attrs)


#: The one global instance every instrumented module imports.
OBS = Observability()


def enable(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Tuple[MetricsRegistry, Tracer]:
    """Switch global instrumentation on; returns (registry, tracer).

    Fresh collectors are created unless explicitly passed in (e.g. to
    keep accumulating into an earlier run's registry).
    """
    OBS.registry = registry if registry is not None else MetricsRegistry()
    OBS.tracer = tracer if tracer is not None else Tracer()
    OBS.registry.declare(STANDARD_COUNTERS)
    OBS.enabled = True
    return OBS.registry, OBS.tracer


def disable() -> None:
    """Switch global instrumentation off (collectors are dropped)."""
    OBS.enabled = False
    OBS.registry = MetricsRegistry.disabled()
    OBS.tracer = Tracer.disabled()


def is_enabled() -> bool:
    return OBS.enabled


def get_registry() -> MetricsRegistry:
    """The active global registry (the disabled singleton while off)."""
    return OBS.registry


def get_tracer() -> Tracer:
    """The active global tracer (the disabled singleton while off)."""
    return OBS.tracer


@contextmanager
def instrumentation(
    registry: Optional[MetricsRegistry] = None,
    tracer: Optional[Tracer] = None,
) -> Iterator[Tuple[MetricsRegistry, Tracer]]:
    """Enable instrumentation for a ``with`` block, then restore.

    The previous global state (including a previously enabled
    registry/tracer pair) is reinstated on exit, so profiled regions
    nest safely.
    """
    previous = (OBS.enabled, OBS.registry, OBS.tracer)
    try:
        yield enable(registry, tracer)
    finally:
        OBS.enabled, OBS.registry, OBS.tracer = previous
