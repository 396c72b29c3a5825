"""The metrics registry: counters, gauges, histograms, timers.

One :class:`MetricsRegistry` holds every numeric signal the library
emits — planner backtrack counts, per-rule Datalog derivations, store
cache hits, flush timings — keyed by dotted string names
(``planner.backtracks``, ``store.dataset_cache.hit``).  Two usage
modes:

* **process-global** — :data:`repro.obs.OBS` carries one registry that
  instrumented code writes to *only when enabled* (the default is
  disabled, and every mutator on a disabled registry is an immediate
  no-op, so the hot paths pay one attribute check at most);
* **per-object** — anything may own a private always-on registry;
  :class:`~repro.store.triple_store.TripleStore` keeps its maintenance
  counters this way so two stores never share state.

Zero dependencies: histograms use fixed bucket boundaries (Prometheus
style, ``le`` counts) and :meth:`MetricsRegistry.snapshot` returns
plain JSON-able dicts.
"""

from __future__ import annotations

import json
import time
from typing import Dict, Iterable, List, Optional, Tuple

__all__ = ["MetricsRegistry", "Histogram", "DEFAULT_BUCKETS"]

#: Default histogram bucket upper bounds.  Chosen for the library's two
#: dominant value shapes — millisecond timings and small cardinalities
#: (domain sizes, cone sizes) — which both live comfortably in
#: 0.1 … 10⁴ with a +Inf overflow bucket.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 10000,
)


class Histogram:
    """Fixed-boundary histogram with count/sum/min/max running stats."""

    __slots__ = ("buckets", "counts", "count", "total", "min", "max")

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_BUCKETS):
        self.buckets = buckets
        self.counts = [0] * (len(buckets) + 1)  # last = +Inf overflow
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        for i, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def to_dict(self) -> Dict:
        buckets = {str(b): n for b, n in zip(self.buckets, self.counts)}
        buckets["+Inf"] = self.counts[-1]
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "min": self.min,
            "max": self.max,
            "buckets": buckets,
        }


class _Timer:
    """Context manager: observes elapsed milliseconds into a histogram."""

    __slots__ = ("_registry", "_name", "_start", "elapsed_ms")

    def __init__(self, registry: "MetricsRegistry", name: str):
        self._registry = registry
        self._name = name
        self._start = 0.0
        self.elapsed_ms: Optional[float] = None

    def __enter__(self) -> "_Timer":
        self._start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> bool:
        self.elapsed_ms = (time.perf_counter() - self._start) * 1e3
        self._registry.observe(self._name, self.elapsed_ms)
        return False


class _NullTimer:
    """Shared no-op stand-in returned by disabled registries."""

    __slots__ = ()
    elapsed_ms = None

    def __enter__(self):
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_TIMER = _NullTimer()


class MetricsRegistry:
    """Counters, gauges and histograms under dotted string names.

    A disabled registry (``MetricsRegistry.disabled()``) turns every
    mutator into an immediate no-op that records *nothing* — no keys
    appear, snapshots stay empty — so instrumented code can call it
    unconditionally on cold paths.  Hot paths should still guard with
    ``if OBS.enabled:`` to skip even the method call.
    """

    __slots__ = ("enabled", "_counters", "_gauges", "_histograms")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    @classmethod
    def disabled(cls) -> "MetricsRegistry":
        """A registry whose mutators are all no-ops (records nothing)."""
        return cls(enabled=False)

    # -- mutators --------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Increment counter *name* (created at 0 on first touch)."""
        if not self.enabled:
            return
        self._counters[name] = self._counters.get(name, 0) + amount

    def declare(self, names: Iterable[str]) -> None:
        """Register counters at 0 so snapshots show them even untouched."""
        if not self.enabled:
            return
        for name in names:
            self._counters.setdefault(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name*."""
        if not self.enabled:
            return
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    def timer(self, name: str):
        """``with registry.timer("store.flush_ms"): ...`` — observes ms."""
        if not self.enabled:
            return _NULL_TIMER
        return _Timer(self, name)

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    # -- readers ---------------------------------------------------------

    def counter(self, name: str) -> float:
        return self._counters.get(name, 0)

    def counters(self, prefix: str = "") -> Dict[str, float]:
        """Counters whose name starts with *prefix*, sorted by name."""
        return {
            name: value
            for name, value in sorted(self._counters.items())
            if name.startswith(prefix)
        }

    def gauges(self) -> Dict[str, float]:
        return dict(sorted(self._gauges.items()))

    def histogram(self, name: str) -> Optional[Histogram]:
        return self._histograms.get(name)

    def __len__(self) -> int:
        """Total number of recorded entries (all three families)."""
        return len(self._counters) + len(self._gauges) + len(self._histograms)

    # -- export ----------------------------------------------------------

    def snapshot(self) -> Dict:
        """The registry as plain JSON-able dicts (stable key order)."""
        return {
            "counters": self.counters(),
            "gauges": self.gauges(),
            "histograms": {
                name: hist.to_dict()
                for name, hist in sorted(self._histograms.items())
            },
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def describe(self) -> str:
        """A human-readable multi-line summary (the ``--profile`` body)."""
        lines: List[str] = []
        counters = self.counters()
        if counters:
            lines.append("counters:")
            width = max(len(n) for n in counters)
            for name, value in counters.items():
                shown = int(value) if float(value).is_integer() else value
                lines.append(f"  {name:<{width}}  {shown}")
        gauges = self.gauges()
        if gauges:
            lines.append("gauges:")
            width = max(len(n) for n in gauges)
            for name, value in gauges.items():
                lines.append(f"  {name:<{width}}  {value}")
        if self._histograms:
            lines.append("histograms:")
            width = max(len(n) for n in self._histograms)
            for name, hist in sorted(self._histograms.items()):
                lines.append(
                    f"  {name:<{width}}  count={hist.count} "
                    f"sum={hist.total:.3f} min={hist.min:.3f} "
                    f"max={hist.max:.3f}"
                )
        return "\n".join(lines) if lines else "(no metrics recorded)"
