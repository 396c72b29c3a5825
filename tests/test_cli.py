"""Tests for the command-line interface."""

import io

import pytest

from repro.cli import main


DATA = """
painter sc artist .
paints dom painter .
Picasso paints Guernica .
"""

SIMPLE_BLANKY = """
a p b .
a p _:X .
"""

QUERY = """
CONSTRUCT { ?X status known-artist . }
WHERE { ?X type artist . }
"""

WIDE_QUERY = """
CONSTRUCT { ?X status known-artist . }
WHERE { ?X type ?C . }
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, content in [
        ("data.nt", DATA),
        ("blanky.nt", SIMPLE_BLANKY),
        ("goal.nt", "Picasso type artist .\n"),
        ("badgoal.nt", "Picasso type sculptor .\n"),
        ("q.rq", QUERY),
        ("wide.rq", WIDE_QUERY),
    ]:
        p = tmp_path / name
        p.write_text(content)
        paths[name] = str(p)
    return paths


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestGraphCommands:
    def test_closure(self, files):
        code, text = run(["closure", files["data.nt"]])
        assert code == 0
        assert "Picasso type artist ." in text

    def test_rho_closure_smaller(self, files):
        _, full = run(["closure", files["data.nt"]])
        _, rho = run(["closure", files["data.nt"], "--rho"])
        assert len(rho.splitlines()) < len(full.splitlines())
        assert "Picasso type artist ." in rho

    def test_core(self, files):
        code, text = run(["core", files["blanky.nt"]])
        assert code == 0
        assert text.strip() == "a p b ."

    def test_nf(self, files):
        code, text = run(["nf", files["blanky.nt"]])
        assert code == 0
        assert "a p b ." in text
        assert "_:" not in text

    def test_minimal(self, files):
        code, text = run(["minimal", files["data.nt"]])
        assert code == 0
        assert len(text.splitlines()) == 3  # already minimal

    def test_lean_verdicts(self, files):
        code, text = run(["lean", files["data.nt"]])
        assert code == 0 and "lean" in text
        code, text = run(["lean", files["blanky.nt"], "--witness"])
        assert code == 1
        assert "not lean" in text and "witness" in text

    def test_stats(self, files):
        code, text = run(["stats", files["blanky.nt"]])
        assert code == 0
        assert "triples:            2" in text
        assert "blank nodes:        1" in text
        assert "lean (Def 3.7):     False" in text

    def test_stats_store_maintenance_counters(self, files):
        code, text = run(["stats", files["data.nt"]])
        assert code == 0
        assert "closure size:" in text
        assert "incremental_insert: 0" in text
        assert "incremental_delete: 0" in text
        assert "recomputed:         1" in text

    def test_stats_query_cache_counters_declared_at_zero(self, files):
        code, text = run(["stats", files["data.nt"]])
        assert code == 0
        for name in (
            "query.cache.hits",
            "query.cache.misses",
            "query.cache.containment_hits",
            "query.cache.invalidations",
            "query.cache.evictions",
        ):
            assert any(
                line.split()[0] == f"{name}:" and line.split()[-1] == "0"
                for line in text.splitlines()
                if line.strip()
            ), name

    def test_dot(self, files):
        code, text = run(["dot", files["data.nt"]])
        assert code == 0
        assert text.startswith("digraph")


class TestDecisionCommands:
    def test_entails_positive(self, files):
        code, text = run(["entails", files["data.nt"], files["goal.nt"]])
        assert code == 0 and "entailed" in text

    def test_entails_negative_exit_code(self, files):
        code, text = run(["entails", files["data.nt"], files["badgoal.nt"]])
        assert code == 1 and "not entailed" in text

    def test_entails_simple_mode(self, files):
        code, _ = run(["entails", "--simple", files["data.nt"], files["goal.nt"]])
        assert code == 1  # needs RDFS reasoning

    def test_equivalent(self, files):
        code, _ = run(["equivalent", files["data.nt"], files["data.nt"]])
        assert code == 0
        code, _ = run(["equivalent", files["data.nt"], files["goal.nt"]])
        assert code == 1

    def test_contains(self, files):
        code, text = run(["contains", files["q.rq"], files["wide.rq"]])
        assert code == 0 and "contained" in text
        code, text = run(["contains", files["wide.rq"], files["q.rq"]])
        assert code == 1

    def test_contains_entailment_flag(self, files):
        code, _ = run(
            ["contains", "--entailment", files["q.rq"], files["wide.rq"]]
        )
        assert code == 0


class TestQueryAndPath:
    def test_query(self, files):
        code, text = run(["query", files["q.rq"], files["data.nt"]])
        assert code == 0
        assert text.strip() == "Picasso status known-artist ."

    def test_query_merge_semantics(self, files):
        code, _ = run(
            ["query", files["q.rq"], files["data.nt"], "--semantics", "merge"]
        )
        assert code == 0

    def test_query_cached_matches_plain(self, files):
        plain_code, plain_text = run(
            ["query", files["q.rq"], files["data.nt"]]
        )
        code, text = run(
            ["query", files["q.rq"], files["data.nt"], "--cached"]
        )
        assert code == plain_code == 0
        assert text == plain_text

    def test_query_cached_merge_matches_plain(self, files):
        _, plain_text = run(
            ["query", files["q.rq"], files["data.nt"], "--semantics", "merge"]
        )
        code, text = run(
            [
                "query", files["q.rq"], files["data.nt"],
                "--cached", "--semantics", "merge",
            ]
        )
        assert code == 0
        assert text == plain_text

    def test_path_all_pairs(self, files):
        code, text = run(["path", "paints", files["data.nt"]])
        assert code == 0
        assert "Picasso\tGuernica" in text

    def test_path_single_source_rdfs(self, files):
        code, text = run(
            ["path", "type/sc*", files["data.nt"], "--source", "Picasso", "--rdfs"]
        )
        assert code == 0
        assert "artist" in text and "painter" in text


class TestExplain:
    def test_explain_entails(self, files):
        code, text = run(
            ["explain", "entails", files["data.nt"], files["goal.nt"], "--rdfs"]
        )
        assert code == 0
        assert "entailment plan:" in text
        assert "strategies:" in text

    def test_explain_query(self, files):
        code, text = run(["explain", "query", files["q.rq"], files["data.nt"]])
        assert code == 0
        assert "matching plan:" in text
        assert "?X" in text


class TestProfile:
    def test_profile_closure_emits_shared_registry(self, files):
        code, text = run(["--profile", "closure", files["data.nt"]])
        assert code == 0
        # Payload first, then the profile as N-Triples comment lines.
        assert "Picasso type artist ." in text
        profile = [l for l in text.splitlines() if l.startswith("#")]
        assert profile, "no profile lines emitted"
        joined = "\n".join(profile)
        # One shared registry: every instrumented layer's counters show
        # up (declared at zero for layers this command never touched).
        for name in (
            "planner.backtracks",
            "datalog.derived",
            "store.dataset_cache.hit",
            "closure.rounds",
        ):
            assert name in joined
        assert "spans:" in joined or "slowest spans" in joined

    def test_profile_leaves_instrumentation_off(self, files):
        from repro import obs

        run(["--profile", "entails", files["data.nt"], files["goal.nt"]])
        assert not obs.is_enabled()

    def test_profile_json(self, files, tmp_path):
        import json

        dest = tmp_path / "prof.json"
        code, _ = run(
            ["--profile", "--profile-json", str(dest),
             "closure", files["data.nt"]]
        )
        assert code == 0
        payload = json.loads(dest.read_text())
        assert payload["metrics"]["counters"]["closure.rounds"] >= 1
        assert "trace" in payload

    def test_without_profile_no_comment_lines(self, files):
        _, text = run(["closure", files["data.nt"]])
        assert not [l for l in text.splitlines() if l.startswith("#")]


class TestErrors:
    def test_missing_file(self):
        code, _ = run(["closure", "/nonexistent/file.nt"])
        assert code == 2

    def test_bad_graph_syntax(self, tmp_path):
        bad = tmp_path / "bad.nt"
        bad.write_text("a p\n")
        code, _ = run(["closure", str(bad)])
        assert code == 2

    def test_bad_query_syntax(self, tmp_path, files):
        bad = tmp_path / "bad.rq"
        bad.write_text("SELECT nothing")
        code, _ = run(["query", str(bad), files["data.nt"]])
        assert code == 2

    def test_bad_path_expression(self, files):
        code, _ = run(["path", "((", files["data.nt"]])
        assert code == 2
