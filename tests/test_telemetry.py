"""The telemetry pipeline: trace merge, progress, exporters, CLI.

Four layers of assertions:

* trace merge — ``Tracer.merge`` rebases foreign events onto one
  monotonic timeline;
* exception safety — spans unwound by exceptions finish with an
  ``error`` attr, hand-abandoned spans still appear in snapshots and
  rollups (flagged ``unfinished``) instead of vanishing;
* progress — heartbeats rate-limit against an injectable clock, JSON
  mode emits one valid object per line, disabled reporters are silent;
* end to end — ingest counts what it read, the loader and fixpoint
  loops report heartbeats, and the CLI's ``--progress-json`` /
  ``--trace-out`` / ``metrics`` surface works.
"""

import io
import json

import pytest

from repro import obs
from repro.cli import main
from repro.ingest import load_ntriples
from repro.obs import (
    DEFAULT_BUCKETS,
    Histogram,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    prometheus_text,
)
from repro.obs.progress import (
    ProgressReporter,
    current_progress,
    peak_rss_bytes,
    progress_scope,
)


@pytest.fixture(autouse=True)
def _instrumentation_off():
    """Every test starts and ends with global instrumentation off."""
    obs.disable()
    yield
    obs.disable()


def _ontology_lines(n: int):
    from repro.generators import synthetic_ontology_lines

    return list(synthetic_ontology_lines(n))


# ----------------------------------------------------------------------
# Trace merge
# ----------------------------------------------------------------------


class TestTracerMerge:
    def test_foreign_events_rebase_and_anchor(self):
        worker = Tracer()
        with worker.span("chunk", chunk=0):
            with worker.span("parse"):
                pass
        foreign = worker.snapshot()

        parent = Tracer()
        with parent.span("load") as _:
            parent.merge(foreign, label="worker-1")
        events = parent.snapshot()
        assert [e["name"] for e in events] == ["load", "chunk", "parse"]
        chunk, parse = events[1], events[2]
        # Top-level foreign spans nest under the open parent span;
        # internal parent links shift by the insertion base.
        assert chunk["parent"] == 0
        assert parse["parent"] == chunk["index"]
        assert chunk["attrs"]["track"] == "worker-1"
        # Rebased onto our timeline: nothing ends in the future.
        now = parent.now_ms()
        for e in events[1:]:
            assert e["start_ms"] + (e["duration_ms"] or 0) <= now + 1e-6

    def test_merge_into_disabled_tracer_is_noop(self):
        worker = Tracer()
        with worker.span("x"):
            pass
        parent = Tracer.disabled()
        parent.merge(worker.snapshot(), label="w")
        assert len(parent) == 0


# ----------------------------------------------------------------------
# Exception-safe spans
# ----------------------------------------------------------------------


class TestSpanExceptionSafety:
    def test_exception_finishes_span_with_error_attr(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("work"):
                raise RuntimeError("boom")
        (event,) = tracer.snapshot()
        assert event["duration_ms"] is not None
        assert event["attrs"]["error"] == "RuntimeError"
        assert tracer.aggregate()["work"]["count"] == 1

    def test_budget_trip_mid_dred_keeps_span_in_rollup(self):
        """A BudgetExceeded unwinding out of the DRed overdelete loop
        must leave a finished, error-flagged span — the PR 8 fix for
        the hand-opened span in ``retract_fixpoint_into``."""
        from repro.datalog.engine import (
            DatalogAtom,
            DatalogProgram,
            DatalogRule,
            DVar,
            FactStore,
            materialize_fixpoint,
            retract_fixpoint_into,
        )
        from repro.robustness import Budget, BudgetExceeded, guarded

        X, Y, Z = DVar("X"), DVar("Y"), DVar("Z")
        program = DatalogProgram(
            [
                DatalogRule(
                    DatalogAtom("path", (X, Y)),
                    (DatalogAtom("edge", (X, Y)),),
                ),
                DatalogRule(
                    DatalogAtom("path", (X, Z)),
                    (
                        DatalogAtom("edge", (X, Y)),
                        DatalogAtom("path", (Y, Z)),
                    ),
                ),
            ]
        )
        facts = [("edge", (i, i + 1)) for i in range(12)]
        store = materialize_fixpoint(program, facts)
        base = FactStore()
        for relation, row in facts:
            base.add(relation, row)
        with obs.instrumentation() as (_registry, tracer):
            with pytest.raises(BudgetExceeded):
                with guarded(Budget(max_steps=3)):
                    retract_fixpoint_into(
                        program, store, base, [("edge", (0, 1))]
                    )
        agg = tracer.aggregate()
        assert "datalog.dred.overdelete" in agg
        events = tracer.snapshot()
        span = next(
            e for e in events if e["name"] == "datalog.dred.overdelete"
        )
        assert span["duration_ms"] is not None
        assert span["attrs"].get("error", "").endswith("BudgetExceeded")

    def test_abandoned_span_is_flagged_unfinished(self):
        tracer = Tracer()
        tracer.span("leaked").__enter__()  # never exited
        (event,) = tracer.snapshot()
        assert event["attrs"]["unfinished"] is True
        assert event["duration_ms"] is not None
        assert tracer.aggregate()["leaked"]["count"] == 1


# ----------------------------------------------------------------------
# Progress heartbeats
# ----------------------------------------------------------------------


class _FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


class TestProgressReporter:
    def test_rate_limiting_against_injected_clock(self):
        clock = _FakeClock()
        buf = io.StringIO()
        p = ProgressReporter(stream=buf, interval_s=1.0, clock=clock)
        assert p.report("s", n=1)  # first report always lands
        clock.t = 0.5
        assert not p.report("s", n=2)  # inside the interval: dropped
        clock.t = 1.5
        assert p.report("s", n=3)
        clock.t = 1.6
        assert p.report("s", force=True, n=4)  # force bypasses the limit
        assert p.heartbeats == 3
        assert len(buf.getvalue().splitlines()) == 3

    def test_json_lines_are_valid_and_carry_fields(self):
        buf = io.StringIO()
        p = ProgressReporter(stream=buf, interval_s=0.0, json_lines=True)
        p.report("ingest", lines=5, rate=2.5)
        (line,) = buf.getvalue().splitlines()
        payload = json.loads(line)
        assert payload["stage"] == "ingest"
        assert payload["lines"] == 5
        assert payload["elapsed_s"] >= 0
        if peak_rss_bytes() is not None:
            assert payload["peak_rss_mb"] > 0

    def test_disabled_reporter_is_silent(self):
        buf = io.StringIO()
        p = ProgressReporter(stream=buf, enabled=False, interval_s=0.0)
        assert not p.report("s", force=True, n=1)
        assert buf.getvalue() == ""
        assert p.heartbeats == 0

    def test_scope_installs_and_restores(self):
        assert current_progress() is None
        p = ProgressReporter(stream=io.StringIO())
        with progress_scope(p):
            assert current_progress() is p
        assert current_progress() is None


# ----------------------------------------------------------------------
# End to end: ingest and fixpoint loops
# ----------------------------------------------------------------------


class TestPipelineTelemetry:
    def test_serial_ingest_counters(self):
        lines = _ontology_lines(1200)
        with obs.instrumentation() as (registry, tracer):
            result = load_ntriples(lines, chunk_lines=200)
        assert registry.counter("ingest.lines") == 1200
        assert registry.counter("ingest.chunks") == 6
        assert registry.counter("ingest.skipped_lines") == 0
        assert registry.counter("ingest.rows") == result.triples > 0
        assert registry.histogram("ingest.chunk_parse_ms").count == 6
        assert [e["name"] for e in tracer.snapshot()] == ["ingest.load"]

    def test_loader_heartbeats_fire_per_chunk(self):
        lines = _ontology_lines(600)
        buf = io.StringIO()
        reporter = ProgressReporter(
            stream=buf, interval_s=0.0, json_lines=True
        )
        load_ntriples(lines, chunk_lines=200, progress=reporter)
        payloads = [
            json.loads(line) for line in buf.getvalue().splitlines()
        ]
        assert len(payloads) >= 3  # one per chunk + forced final
        assert payloads[-1]["lines"] == 600
        assert all(p["stage"] == "ingest" for p in payloads)

    def test_datalog_rounds_report_ambient_progress(self):
        from repro.datalog.engine import (
            DatalogAtom,
            DatalogProgram,
            DatalogRule,
            DVar,
            materialize_fixpoint,
        )

        X, Y, Z = DVar("X"), DVar("Y"), DVar("Z")
        program = DatalogProgram(
            [
                DatalogRule(
                    DatalogAtom("path", (X, Y)),
                    (DatalogAtom("edge", (X, Y)),),
                ),
                DatalogRule(
                    DatalogAtom("path", (X, Z)),
                    (
                        DatalogAtom("edge", (X, Y)),
                        DatalogAtom("path", (Y, Z)),
                    ),
                ),
            ]
        )
        facts = [("edge", (i, i + 1)) for i in range(6)]
        buf = io.StringIO()
        reporter = ProgressReporter(
            stream=buf, interval_s=0.0, json_lines=True
        )
        with progress_scope(reporter):
            materialize_fixpoint(program, facts)
        payloads = [
            json.loads(line) for line in buf.getvalue().splitlines()
        ]
        assert payloads, "expected per-round datalog heartbeats"
        assert all(p["stage"] == "datalog" for p in payloads)
        assert payloads[-1]["round"] == len(payloads)


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------


class TestExporters:
    def test_prometheus_text_shape(self):
        registry = MetricsRegistry()
        registry.inc("planner.backtracks", 7)
        registry.set_gauge("store.size", 3)
        registry.observe("load_ms", 0.2)
        registry.observe("load_ms", 3.0)
        text = prometheus_text(registry)
        assert "# TYPE repro_planner_backtracks_total counter" in text
        assert "repro_planner_backtracks_total 7" in text
        assert "repro_store_size 3" in text
        # Cumulative buckets: le=0.25 holds the 0.2 observation, +Inf
        # everything.
        assert 'repro_load_ms_bucket{le="0.25"} 1' in text
        assert 'repro_load_ms_bucket{le="+Inf"} 2' in text
        assert "repro_load_ms_count 2" in text
        # Same output from the plain snapshot dict.
        assert prometheus_text(registry.snapshot()) == text

    def test_prometheus_cumulative_buckets_monotone(self):
        registry = MetricsRegistry()
        for v in (0.05, 0.3, 4.0, 99.0, 12345.0):
            registry.observe("h", v)
        counts = []
        for line in prometheus_text(registry).splitlines():
            if line.startswith("repro_h_bucket"):
                counts.append(int(line.rsplit(" ", 1)[1]))
        assert counts == sorted(counts)
        assert counts[-1] == 5

    def test_chrome_trace_structure(self):
        tracer = Tracer()
        with tracer.span("outer", size=3):
            with tracer.span("inner"):
                pass
        worker = Tracer()
        with worker.span("chunk"):
            pass
        with tracer.span("merge-window"):
            tracer.merge(worker.snapshot(), label="worker-9")
        doc = chrome_trace(tracer)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        spans = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in spans} == {
            "outer",
            "inner",
            "chunk",
            "merge-window",
        }
        # The merged chunk span sits on its own named track.
        chunk = next(e for e in spans if e["name"] == "chunk")
        assert chunk["tid"] != 0
        names = {
            m["args"]["name"] for m in meta if m["name"] == "thread_name"
        }
        assert {"main", "worker-9"} <= names
        # ts/dur are numbers (microseconds), JSON-serializable.
        json.dumps(doc)
        for e in spans:
            assert e["ts"] >= 0 and e["dur"] >= 0

    def test_histogram_default_buckets_used_everywhere(self):
        # The merge protocol relies on a single bucket scheme.
        assert Histogram().buckets == DEFAULT_BUCKETS


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------


class TestCli:
    def test_load_progress_json_and_trace_out(self, tmp_path, capsys):
        data = tmp_path / "g.nt"
        data.write_text("\n".join(_ontology_lines(400)) + "\n")
        trace_path = tmp_path / "trace.json"
        out = io.StringIO()
        code = main(
            [
                "load",
                str(data),
                "--chunk-lines",
                "100",
                "--close",
                "--progress-json",
                "--trace-out",
                str(trace_path),
            ],
            out=out,
        )
        assert code == 0
        assert "closure rows:" in out.getvalue()
        stderr = capsys.readouterr().err
        heartbeats = [json.loads(line) for line in stderr.splitlines()]
        assert heartbeats, "expected at least one heartbeat line"
        assert {p["stage"] for p in heartbeats} >= {"ingest", "closure"}
        doc = json.loads(trace_path.read_text())
        assert doc["traceEvents"]
        span_names = {
            e["name"] for e in doc["traceEvents"] if e["ph"] == "X"
        }
        assert "ingest.load" in span_names
        assert "closure.fixpoint" in span_names

    def test_metrics_subcommand_roundtrip(self, tmp_path):
        data = tmp_path / "g.nt"
        data.write_text("\n".join(_ontology_lines(400)) + "\n")
        snap_path = tmp_path / "prof.json"
        out = io.StringIO()
        assert (
            main(
                [
                    "--profile",
                    "--profile-json",
                    str(snap_path),
                    "load",
                    str(data),
                ],
                out=out,
            )
            == 0
        )
        prom = io.StringIO()
        assert main(["metrics", str(snap_path)], out=prom) == 0
        text = prom.getvalue()
        assert "# TYPE repro_ingest_lines_total counter" in text
        assert "repro_ingest_lines_total 400" in text
        as_json = io.StringIO()
        assert (
            main(["metrics", str(snap_path), "--format", "json"], out=as_json)
            == 0
        )
        snapshot = json.loads(as_json.getvalue())
        assert snapshot["counters"]["ingest.lines"] == 400

    def test_metrics_subcommand_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"bogus": 1}')
        assert main(["metrics", str(bad)], out=io.StringIO()) == 2

    def test_trace_out_on_entails(self, tmp_path):
        premise = tmp_path / "g1.nt"
        premise.write_text("<http://a> <http://p> <http://b> .\n")
        conclusion = tmp_path / "g2.nt"
        conclusion.write_text("_:x <http://p> <http://b> .\n")
        trace_path = tmp_path / "t.json"
        out = io.StringIO()
        code = main(
            [
                "entails",
                str(premise),
                str(conclusion),
                "--trace-out",
                str(trace_path),
            ],
            out=out,
        )
        assert code == 0
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"] if e["ph"] == "X"}
        assert "planner.prepare" in names
