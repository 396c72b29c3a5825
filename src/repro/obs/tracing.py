"""Span-based tracing for search and fixpoint loops.

A :class:`Tracer` records structured events — name, attributes, start
offset, duration, parent span — from ``with tracer.span(...)`` blocks.
The planner wraps its prepare phase, the Datalog engine wraps each
semi-naive round and DRed phase, the store wraps every maintenance
flush; nesting is tracked with a plain stack so a trace snapshot
reconstructs the call tree (``parent`` indexes into the event list).

Like the metrics registry, a disabled tracer is an aggressive no-op:
``span()`` returns one shared inert context manager, no event objects
are allocated, and snapshots stay empty.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional

__all__ = ["Tracer", "TraceEvent"]


class TraceEvent:
    """One finished span: name, attrs, timing, tree position."""

    __slots__ = ("index", "name", "attrs", "parent", "start_ms", "duration_ms")

    def __init__(
        self,
        index: int,
        name: str,
        attrs: Dict,
        parent: Optional[int],
        start_ms: float,
    ):
        self.index = index
        self.name = name
        self.attrs = attrs
        self.parent = parent
        self.start_ms = start_ms
        self.duration_ms: Optional[float] = None

    def to_dict(self, now_ms: Optional[float] = None) -> Dict:
        """JSON form; an unfinished span closes at *now_ms* if given.

        Spans abandoned mid-flight (a ``BudgetExceeded`` unwinding past
        a hand-opened span, a generator never finalized) keep
        ``duration_ms is None`` in the live event; the snapshot path
        passes the capture time so they still record an end time
        instead of vanishing from rollups, and are marked
        ``"unfinished": true``.
        """
        duration = self.duration_ms
        attrs = dict(self.attrs)
        if duration is None and now_ms is not None:
            duration = max(now_ms - self.start_ms, 0.0)
            attrs["unfinished"] = True
        return {
            "index": self.index,
            "name": self.name,
            "attrs": attrs,
            "parent": self.parent,
            "start_ms": round(self.start_ms, 3),
            "duration_ms": None if duration is None else round(duration, 3),
        }


class _Span:
    """Live span handle; ``annotate()`` attaches attrs mid-flight."""

    __slots__ = ("_tracer", "_event", "_t0")

    def __init__(self, tracer: "Tracer", event: TraceEvent):
        self._tracer = tracer
        self._event = event
        self._t0 = 0.0

    def annotate(self, **attrs) -> "_Span":
        self._event.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, _exc, _tb) -> bool:
        self._event.duration_ms = (time.perf_counter() - self._t0) * 1e3
        if exc_type is not None:
            # An exception (BudgetExceeded, injected fault) unwound
            # through the span: still a finished span, but flagged so
            # rollups can distinguish aborted work.
            self._event.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._event)
        return False


class _NullSpan:
    """Shared inert span returned by a disabled tracer."""

    __slots__ = ()

    def annotate(self, **_attrs) -> "_NullSpan":
        return self

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class Tracer:
    """Records nested spans as a flat event list with parent links."""

    __slots__ = ("enabled", "_events", "_stack", "_origin")

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._events: List[TraceEvent] = []
        self._stack: List[int] = []
        self._origin = time.perf_counter()

    @classmethod
    def disabled(cls) -> "Tracer":
        """A tracer whose spans are all shared no-ops (records nothing)."""
        return cls(enabled=False)

    def span(self, name: str, **attrs):
        """Open a span: ``with tracer.span("datalog.round", round=2): ...``"""
        if not self.enabled:
            return _NULL_SPAN
        event = TraceEvent(
            index=len(self._events),
            name=name,
            attrs=attrs,
            parent=self._stack[-1] if self._stack else None,
            start_ms=(time.perf_counter() - self._origin) * 1e3,
        )
        self._events.append(event)
        self._stack.append(event.index)
        return _Span(self, event)

    def _pop(self, event: TraceEvent) -> None:
        # Exits come in LIFO order for well-nested ``with`` blocks; be
        # tolerant of generators finalized out of order.
        if self._stack and self._stack[-1] == event.index:
            self._stack.pop()
        elif event.index in self._stack:
            self._stack.remove(event.index)

    def now_ms(self) -> float:
        """Milliseconds since this tracer's origin (its time base)."""
        return (time.perf_counter() - self._origin) * 1e3

    def merge(self, events: List[Dict], label: str = "") -> None:
        """Append another tracer's :meth:`snapshot` to this event list.

        The door for spans recorded elsewhere — by another tracer, or
        before this one existed (a benchmark folds its import time in
        this way).  The foreign events keep their internal parent links
        (re-based onto this tracer's index space); top-level foreign
        spans become children of the currently open span.

        Foreign timestamps are measured against another clock origin,
        which is incomparable with ours — they are re-based so the last
        foreign span ends at the merge instant.  That keeps every event
        on one monotonic timeline (what the Chrome-trace exporter
        needs); the ``track`` attribute (*label*) preserves which
        source it was.
        """
        if not self.enabled or not events:
            return
        base = len(self._events)
        anchor = self._stack[-1] if self._stack else None
        end = max(
            e["start_ms"] + (e["duration_ms"] or 0.0) for e in events
        )
        offset = self.now_ms() - end
        for e in events:
            attrs = dict(e.get("attrs", ()))
            if label:
                attrs.setdefault("track", label)
            parent = e.get("parent")
            event = TraceEvent(
                index=base + e["index"],
                name=e["name"],
                attrs=attrs,
                parent=anchor if parent is None else base + parent,
                start_ms=e["start_ms"] + offset,
            )
            event.duration_ms = e.get("duration_ms")
            self._events.append(event)

    # -- readers ---------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        return list(self._events)

    def __len__(self) -> int:
        return len(self._events)

    def reset(self) -> None:
        self._events.clear()
        self._stack.clear()
        self._origin = time.perf_counter()

    def snapshot(self) -> List[Dict]:
        """Every recorded span as a JSON-able dict, in start order.

        Unfinished spans (abandoned by an exception that bypassed their
        ``__exit__``, e.g. a hand-opened span) are closed at capture
        time and flagged ``unfinished`` instead of being dropped.
        """
        now = self.now_ms()
        return [e.to_dict(now_ms=now) for e in self._events]

    def aggregate(self) -> Dict[str, Dict]:
        """Per-span-name rollup: call count and total/max duration.

        Unfinished spans contribute their elapsed-so-far duration, so
        work aborted by a budget trip or injected fault still shows up
        in the rollup instead of silently vanishing.
        """
        now = self.now_ms()
        out: Dict[str, Dict] = {}
        for e in self._events:
            row = out.setdefault(
                e.name, {"count": 0, "total_ms": 0.0, "max_ms": 0.0}
            )
            row["count"] += 1
            duration = e.duration_ms
            if duration is None:
                duration = max(now - e.start_ms, 0.0)
            row["total_ms"] += duration
            row["max_ms"] = max(row["max_ms"], duration)
        for row in out.values():
            row["total_ms"] = round(row["total_ms"], 3)
            row["max_ms"] = round(row["max_ms"], 3)
        return dict(sorted(out.items()))

    def describe(self, limit: int = 10) -> str:
        """Rollup table plus the *limit* slowest spans with their attrs."""
        if not self._events:
            return "(no spans recorded)"
        lines = ["spans (by name):"]
        agg = self.aggregate()
        width = max(len(n) for n in agg)
        for name, row in agg.items():
            lines.append(
                f"  {name:<{width}}  n={row['count']} "
                f"total={row['total_ms']:.3f}ms max={row['max_ms']:.3f}ms"
            )
        finished = [e for e in self._events if e.duration_ms is not None]
        slowest = sorted(finished, key=lambda e: -e.duration_ms)[:limit]
        if slowest:
            lines.append(f"slowest spans (top {len(slowest)}):")
            for e in slowest:
                attrs = ", ".join(f"{k}={v}" for k, v in e.attrs.items())
                lines.append(
                    f"  {e.duration_ms:9.3f}ms  {e.name}"
                    + (f"  [{attrs}]" if attrs else "")
                )
        return "\n".join(lines)
