"""Parity and determinism tests for the scale path (ROADMAP item 3).

Three claims are pinned down here:

* **Partitioned closure parity** — ``rdfs_closure_partitioned`` at 1,
  2 and 7 shards (and with spill forced) equals the single-shard
  arrays kernel and the rule system of Definition 2.7, on wild graphs
  (reserved vocabulary in subject/object positions, literal objects)
  and on tame RDFS graphs.
* **Spill-format identity** — ``SortedRuns.tofile``/``fromfile`` and
  the flat-array helpers round-trip exactly; a ``RunPool`` forced to
  spill merges to the same rows as an unbounded one.
* **Loader determinism** — loading the same file with any worker count
  and chunk size yields an identical term dictionary and identical
  encoded rows (the deterministic ID-remap argument), and the decoded
  graph equals the one-shot parser's.
"""

import io
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import main as cli_main
from repro.core import BNode, Literal, RDFGraph, Triple, URI
from repro.core.columns import (
    SortedRuns,
    merge_union_many,
    rows_from_array,
    rows_to_array,
)
from repro.core.interning import BNODE_BASE, LITERAL_BASE, TermDict
from repro.core.vocabulary import DOM, RANGE, SC, SP, TYPE
from repro.generators import (
    synthetic_ontology_graph,
    synthetic_ontology_lines,
    write_synthetic_ontology,
)
from repro.ingest import RunPool, load_ntriples
from repro.ingest.spill import SpilledRun
from repro.rdfio.ntriples import ParseError, iter_ntriples, parse_ntriples
from repro.semantics.closure import (
    rdfs_closure_arrays,
    rdfs_closure_by_rules,
    rdfs_closure_partitioned,
    rdfs_closure_partitioned_rows,
)
from repro.store import TripleStore

from .strategies import rdfs_graphs

COMMON = dict(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SUBJECTS = [URI("a"), URI("b"), URI("p"), BNode("X"), BNode("Y"), SP, SC, TYPE]
_PREDICATES = [URI("p"), URI("q"), URI("a"), SP, SC, TYPE, DOM, RANGE]
_OBJECTS = [URI("a"), URI("c"), BNode("Y"), BNode("Z"), Literal("v"), SC, DOM]


def wild_graphs(max_size: int = 6):
    triples = st.builds(
        Triple,
        st.sampled_from(_SUBJECTS),
        st.sampled_from(_PREDICATES),
        st.sampled_from(_OBJECTS),
    )
    return st.lists(triples, min_size=0, max_size=max_size).map(RDFGraph)


_IDS = st.sampled_from(
    [0, 1, 2, 3, 4, 5, 9, 17, BNODE_BASE, BNODE_BASE + 3,
     LITERAL_BASE, LITERAL_BASE + 7]
)


def encoded_rows(max_size: int = 12):
    return st.lists(st.tuples(_IDS, _IDS, _IDS), max_size=max_size)


# ----------------------------------------------------------------------
# Partitioned closure parity
# ----------------------------------------------------------------------


class TestPartitionedClosureParity:
    @settings(**COMMON)
    @given(wild_graphs())
    def test_shard_counts_agree_on_wild_graphs(self, g):
        reference = set(rdfs_closure_by_rules(g))
        assert set(rdfs_closure_arrays(g)) == reference
        for shards in (1, 2, 7):
            assert set(rdfs_closure_partitioned(g, shards=shards)) == reference

    @settings(**COMMON)
    @given(rdfs_graphs())
    def test_shard_counts_agree_on_tame_graphs(self, g):
        reference = set(rdfs_closure_by_rules(g))
        assert set(rdfs_closure_arrays(g)) == reference
        for shards in (1, 2, 7):
            assert set(rdfs_closure_partitioned(g, shards=shards)) == reference

    @settings(**COMMON)
    @given(g=wild_graphs())
    def test_spill_mode_agrees(self, g, tmp_path_factory):
        # max_memory_mb=0 forces every enforceable spill opportunity.
        reference = rdfs_closure_arrays(g)
        got = rdfs_closure_partitioned(
            g, shards=3, max_memory_mb=0,
            tmp_dir=str(tmp_path_factory.mktemp("shards")),
        )
        assert got == reference

    def test_synthetic_ontology_partitioned(self):
        g = synthetic_ontology_graph(2000)
        reference = rdfs_closure_arrays(g)
        for shards in (1, 4):
            assert rdfs_closure_partitioned(g, shards=shards) == reference

    def test_rows_entrypoint_matches_graph_entrypoint(self):
        g = synthetic_ontology_graph(600)
        terms = TermDict()
        rows = sorted(set(terms.encode_rows(g.triples)))
        acc = rdfs_closure_partitioned_rows(rows, shards=5)
        decoded = RDFGraph._from_trusted(terms.decode_rows(acc.rows()))
        assert decoded == rdfs_closure_arrays(g)

    def test_rejects_zero_shards(self):
        with pytest.raises(ValueError):
            rdfs_closure_partitioned_rows([], shards=0)

    def test_variables_raise_type_error(self):
        from repro.core.terms import Variable

        g = RDFGraph._from_trusted(
            [Triple(URI("a"), URI("p"), Variable("x"))]
        )
        with pytest.raises(TypeError):
            rdfs_closure_partitioned(g)


# ----------------------------------------------------------------------
# Spill format
# ----------------------------------------------------------------------


class TestSpillRoundTrip:
    @settings(**COMMON)
    @given(encoded_rows())
    def test_flat_array_round_trip(self, rows):
        assert rows_from_array(rows_to_array(rows)) == [
            tuple(r) for r in rows
        ]

    def test_flat_array_rejects_ragged(self):
        with pytest.raises(ValueError):
            rows_from_array(array("q", [1, 2, 3, 4]))

    @settings(**COMMON)
    @given(rows=encoded_rows())
    def test_sorted_runs_tofile_fromfile_identity(self, rows, tmp_path_factory):
        rel = SortedRuns.from_rows(rows)
        path = tmp_path_factory.mktemp("spill") / "rel.bin"
        with open(path, "wb") as f:
            n = rel.tofile(f)
        assert n == len(rel)
        with open(path, "rb") as f:
            back = SortedRuns.fromfile(f, n)
        assert back == rel
        assert back.rows() == rel.rows()

    @settings(**COMMON)
    @given(st.lists(encoded_rows(max_size=6), max_size=5))
    def test_merge_union_many_vs_sets(self, row_lists):
        sorted_lists = [sorted(rows) for rows in row_lists]
        expected = sorted(set().union(*map(set, sorted_lists)) if sorted_lists else set())
        assert merge_union_many(sorted_lists) == [
            tuple(r) for r in expected
        ]

    def test_run_pool_tiny_budget_merges_identically(self, tmp_path):
        runs = [
            sorted({(i * 7 + j, 1, j) for j in range(50)})
            for i in range(8)
        ]
        unbounded = RunPool(max_bytes=None)
        for run in runs:
            unbounded.add(list(run))
        with RunPool(max_bytes=1, tmp_dir=str(tmp_path)) as bounded:
            for run in runs:
                bounded.add(list(run))
            assert bounded.spills > 0
            assert bounded.merge() == unbounded.merge()

    def test_spilled_run_streams_in_blocks(self, tmp_path):
        rows = sorted({(i, i % 5, i * 3) for i in range(1000)})
        path = tmp_path / "run.bin"
        with open(path, "wb") as f:
            rows_to_array(rows).tofile(f)
        spilled = SpilledRun(str(path), len(rows))
        assert list(spilled.iter_rows(block_rows=7)) == rows
        assert spilled.load() == rows


# ----------------------------------------------------------------------
# Loader determinism and parity
# ----------------------------------------------------------------------

_SAMPLE = """\
a p b .
b p c .
_:x p "lit with \\n escape" .
# a comment line

c sp p .
p dom klass .
a type klass .
"""

_SAMPLE_BAD = _SAMPLE + 'broken "line\nd p e .\n'


class TestLoaderDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("chunk_lines", [3, 7, 1000])
    def test_any_worker_and_chunk_config_is_identical(
        self, workers, chunk_lines
    ):
        baseline = load_ntriples(io.StringIO(_SAMPLE), workers=1)
        result = load_ntriples(
            io.StringIO(_SAMPLE), workers=workers, chunk_lines=chunk_lines
        )
        assert result.runs.rows() == baseline.runs.rows()
        assert result.terms.pool_values() == baseline.terms.pool_values()
        assert result.graph() == baseline.graph()

    def test_matches_one_shot_parser(self):
        assert load_ntriples(io.StringIO(_SAMPLE)).graph() == parse_ntriples(
            _SAMPLE
        )

    def test_strict_parse_error_propagates_from_workers(self):
        with pytest.raises(ParseError) as err:
            load_ntriples(
                io.StringIO(_SAMPLE_BAD), workers=2, chunk_lines=2
            )
        assert err.value.line_number == 9

    @pytest.mark.parametrize("workers", [1, 2])
    def test_tolerant_mode_reports_issues_with_file_line_numbers(
        self, workers
    ):
        result = load_ntriples(
            io.StringIO(_SAMPLE_BAD),
            workers=workers,
            chunk_lines=3,
            strict=False,
        )
        report = parse_ntriples(_SAMPLE_BAD, strict=False)
        assert result.graph() == report.graph
        assert [i.line_number for i in result.issues] == [
            i.line_number for i in report.errors
        ] == [9]

    def test_memory_bounded_load_spills_and_agrees(self, tmp_path):
        lines = list(synthetic_ontology_lines(3000))
        bounded = load_ntriples(
            iter(lines),
            chunk_lines=200,
            max_memory_mb=0,
            tmp_dir=str(tmp_path),
        )
        unbounded = load_ntriples(iter(lines), max_memory_mb=None)
        assert bounded.spilled_runs > 0
        assert bounded.runs.rows() == unbounded.runs.rows()

    def test_load_then_partitioned_close_matches_boxed_pipeline(self):
        lines = list(synthetic_ontology_lines(500))
        result = load_ntriples(iter(lines), workers=2, chunk_lines=100)
        acc = rdfs_closure_partitioned_rows(result.runs.rows(), shards=3)
        decoded = RDFGraph._from_trusted(
            result.terms.decode_rows(acc.rows())
        )
        assert decoded == rdfs_closure_by_rules(
            parse_ntriples("\n".join(lines))
        )

    def test_shared_term_dict_accumulates(self):
        terms = TermDict()
        first = load_ntriples(io.StringIO("a p b .\n"), term_dict=terms)
        second = load_ntriples(io.StringIO("b p c .\n"), term_dict=terms)
        assert first.terms is second.terms is terms
        combined = SortedRuns.from_rows(
            first.runs.rows() + second.runs.rows()
        )
        assert terms.decode_rows(combined.rows())  # all IDs resolve


# ----------------------------------------------------------------------
# Streaming parser and bulk-encode parity
# ----------------------------------------------------------------------


class TestStreamingPrimitives:
    def test_iter_ntriples_matches_parse_ntriples(self):
        streamed = RDFGraph(iter_ntriples(_SAMPLE))
        assert streamed == parse_ntriples(_SAMPLE)

    def test_iter_ntriples_start_offsets_line_numbers(self):
        with pytest.raises(ParseError) as err:
            list(iter_ntriples(["ok p o .", "broken ."], start=100))
        assert err.value.line_number == 101

    def test_iter_ntriples_tolerant_collects_issues(self):
        issues = []
        triples = list(
            iter_ntriples(_SAMPLE_BAD, strict=False, issues=issues)
        )
        assert len(triples) == 7
        assert [i.line_number for i in issues] == [9]

    @settings(**COMMON)
    @given(rdfs_graphs())
    def test_encode_rows_matches_encode_triple(self, g):
        triples = list(g.sorted_triples())
        bulk = TermDict()
        single = TermDict()
        assert bulk.encode_rows(triples) == [
            single.encode_triple(t) for t in triples
        ]
        assert bulk.pool_values() == single.pool_values()
        assert bulk.encodes == single.encodes

    def test_store_bulk_load(self):
        store = TripleStore()
        added = store.bulk_load(io.StringIO(_SAMPLE), workers=1)
        assert added == 6
        assert store.dataset() == parse_ntriples(_SAMPLE)


# ----------------------------------------------------------------------
# CLI smoke
# ----------------------------------------------------------------------


class TestLoadCommand:
    def test_load_reports_and_closes(self, tmp_path, capsys):
        path = tmp_path / "onto.nt"
        write_synthetic_ontology(str(path), 800)
        out = io.StringIO()
        code = cli_main(
            ["load", str(path), "--parallel", "2", "--chunk-lines", "200",
             "--close", "--shards", "2"],
            out=out,
        )
        assert code == 0
        text = out.getvalue()
        assert "triples:            800" in text
        assert "closure rows:" in text

    def test_load_out_writes_closure(self, tmp_path):
        path = tmp_path / "g.nt"
        path.write_text(_SAMPLE)
        target = tmp_path / "closed.nt"
        out = io.StringIO()
        code = cli_main(
            ["load", str(path), "--close", "--out", str(target)], out=out
        )
        assert code == 0
        closed = parse_ntriples(target.read_text())
        assert closed == rdfs_closure_by_rules(parse_ntriples(_SAMPLE))

    def test_load_tolerant_counts_skips(self, tmp_path):
        path = tmp_path / "g.nt"
        path.write_text(_SAMPLE_BAD)
        out = io.StringIO()
        code = cli_main(["load", str(path), "--tolerant"], out=out)
        assert code == 0
        assert "skipped lines:      1" in out.getvalue()
