"""Machine-readable exporters for the obs registry and tracer.

Two formats, both zero-dependency:

* :func:`prometheus_text` — the Prometheus text exposition format
  (version 0.0.4) over a registry snapshot: counters as ``_total``
  series, gauges verbatim, histograms as cumulative ``_bucket{le=...}``
  series with ``_sum``/``_count``.  This is the body the future
  ``repro serve`` ``/metrics`` endpoint returns (ROADMAP item 2), and
  what ``repro metrics --format prom`` prints today.
* :func:`chrome_trace` — Chrome ``trace_event`` JSON over a tracer
  snapshot, loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Spans become complete ("X") events; merged
  spans that carry a ``track`` attribute are laid out on their own
  named thread rows.

Both accept either the live object or its plain-dict snapshot, so
they work equally on an in-process registry and on a snapshot JSON
written by ``--profile-json`` in an earlier run.
"""

from __future__ import annotations

import json
import re
from typing import Dict, List, Union

from .metrics import MetricsRegistry
from .tracing import Tracer

__all__ = ["prometheus_text", "chrome_trace", "write_chrome_trace"]

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: Every exported series is namespaced under this prefix.
PROM_PREFIX = "repro_"


def _prom_name(name: str) -> str:
    """A dotted obs name as a legal Prometheus metric name."""
    return PROM_PREFIX + _NAME_OK.sub("_", name)


def _prom_value(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value) if isinstance(value, float) else str(value)


def prometheus_text(source: Union[MetricsRegistry, Dict]) -> str:
    """A registry (or its snapshot dict) in Prometheus text exposition.

    Counter names gain the conventional ``_total`` suffix; histogram
    bucket counts are emitted *cumulatively* (each ``le`` bound counts
    every observation at or below it), which is what Prometheus
    histograms mean — the registry stores per-bucket counts.
    """
    snapshot = (
        source.snapshot() if isinstance(source, MetricsRegistry) else source
    )
    lines: List[str] = []
    for name, value in snapshot.get("counters", {}).items():
        metric = _prom_name(name) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, value in snapshot.get("gauges", {}).items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {_prom_value(value)}")
    for name, hist in snapshot.get("histograms", {}).items():
        metric = _prom_name(name)
        lines.append(f"# TYPE {metric} histogram")
        buckets = hist.get("buckets", {})
        finite = sorted(
            (float(bound), count)
            for bound, count in buckets.items()
            if bound != "+Inf"
        )
        cumulative = 0
        for bound, count in finite:
            cumulative += count
            lines.append(
                f'{metric}_bucket{{le="{bound:g}"}} {cumulative}'
            )
        lines.append(
            f'{metric}_bucket{{le="+Inf"}} {hist.get("count", 0)}'
        )
        lines.append(f"{metric}_sum {_prom_value(hist.get('sum', 0))}")
        lines.append(f"{metric}_count {hist.get('count', 0)}")
    return "\n".join(lines) + ("\n" if lines else "")


def chrome_trace(source: Union[Tracer, List[Dict]]) -> Dict:
    """A tracer (or its snapshot list) as a Chrome ``trace_event`` dict.

    Every span becomes one complete ("X") event with microsecond
    ``ts``/``dur``.  Events whose attrs carry a ``track`` label (set by
    :meth:`Tracer.merge` for labeled foreign snapshots) get their own
    ``tid`` with a thread_name metadata record, so Perfetto renders
    each source as its own swimlane; unlabeled (parent) spans share
    tid 0.  Serialize with ``json.dump`` or use
    :func:`write_chrome_trace`.
    """
    events = source.snapshot() if isinstance(source, Tracer) else source
    tids: Dict[str, int] = {}
    trace: List[Dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        },
        {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "main"},
        },
    ]
    for e in events:
        attrs = dict(e.get("attrs", ()))
        track = attrs.pop("track", None)
        if track is None:
            tid = 0
        else:
            tid = tids.get(track)
            if tid is None:
                tid = tids[track] = len(tids) + 1
                trace.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": 0,
                        "tid": tid,
                        "args": {"name": str(track)},
                    }
                )
        duration_ms = e.get("duration_ms")
        trace.append(
            {
                "name": e["name"],
                "ph": "X",
                "pid": 0,
                "tid": tid,
                "ts": round(e["start_ms"] * 1e3, 3),
                "dur": round((duration_ms or 0.0) * 1e3, 3),
                "args": attrs,
            }
        )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(source: Union[Tracer, List[Dict]], path) -> None:
    """Write :func:`chrome_trace` output as JSON to *path*."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(chrome_trace(source), f, indent=1)
        f.write("\n")
