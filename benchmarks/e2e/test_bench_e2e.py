"""Self-test of the end-to-end benchmark (``pytest benchmarks/e2e``).

Runs every workload once untraced and once traced at ``--smoke`` sizes
in one child process, then checks the benchmark against its own
contract: ``BENCHMARK.json`` and the emitted metrics name each other,
inputs are a function of the seed, a wrong expectation is counted as a
failed operation, and result files appear whole or not at all.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run as bench  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One smoke run of everything; ``(result file payload, stdout lines)``."""
    out = tmp_path_factory.mktemp("e2e") / "smoke.json"
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--seconds", "0",
         "--seed", "7", "--out", str(out)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(out.read_text()), proc.stdout.strip().splitlines()


def test_declared_metrics_are_emitted_and_vice_versa(smoke):
    payload, _lines = smoke
    declared = {
        False: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        True: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    seen = set()
    for result in payload["results"]:
        emitted = {k: v["unit"] for k, v in result["metrics"].items()}
        assert emitted == declared[result["traced"]], result["workload"]
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        seen.add((result["workload"], result["traced"]))
    assert seen == {(w["name"], t) for w in SPEC["workloads"] for t in (False, True)}


def test_names_and_shape_follow_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    names += [w["name"] for w in SPEC["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [w["name"] for w in SPEC["workloads"]] == list(wl.WORKLOADS)
    assert all(w["why"] == wl.WORKLOADS[w["name"]] and len(w["why"]) <= 200
               for w in SPEC["workloads"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 and m["bound"] <= setup["bound"]
               for m in SPEC["end_to_end"])


def test_smoke_run_is_correct_and_prints_every_metric(smoke):
    payload, lines = smoke
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    printed = {tuple(line.split()[:2]) for line in lines[:-1]}
    for result in payload["results"]:
        assert result["failed"] == 0, result["notes"]
        for metric in result["metrics"]:
            assert (result["workload"], metric) in printed
        assert (result["workload"], "failed_ops_share") in printed


@pytest.mark.parametrize("name", list(wl.WORKLOADS))
def test_generator_is_a_function_of_the_seed(name, tmp_path):
    a = wl.write_workload(wl.build_workload(name, 11, "smoke"), tmp_path / "a")
    b = wl.write_workload(wl.build_workload(name, 11, "smoke"), tmp_path / "b")
    c = wl.write_workload(wl.build_workload(name, 12, "smoke"), tmp_path / "c")
    for key in ("data", "script"):
        assert a[key].read_bytes() == b[key].read_bytes()
        assert a[key].read_bytes() != c[key].read_bytes()
    assert wl.build_workload(name, 11, "smoke").expected == wl.build_workload(name, 11, "smoke").expected
    # the program's files carry no expectations
    assert "sha" not in a["script"].read_text()


def test_wrong_expected_digest_is_a_failed_operation(tmp_path):
    prep = bench.prepare("update_stream", 3, "smoke", tmp_path / "setup")
    rounds = [bench.run_round(prep, tmp_path / "round", traced=False)]
    attempted, failed, notes = bench.score(prep, rounds)
    assert attempted > 0 and failed == 0, notes
    victim = next(i for i, e in enumerate(prep.workload.expected) if e and "sha" in e)
    prep.workload.expected[victim] = dict(prep.workload.expected[victim], sha="0" * 64)
    attempted, failed, notes = bench.score(prep, rounds)
    assert failed == 1 and failed / attempted > 0
    assert f"op {victim} " in notes[0]


def test_result_file_is_written_by_temp_and_rename(tmp_path, monkeypatch):
    target = tmp_path / "result.json"
    target.write_text("old")
    renames = []
    real_replace = os.replace

    def spy(src, dst):
        # the new content is complete on disk before it takes the name
        assert json.loads(Path(src).read_text()) == {"k": [1, 2]}
        assert Path(dst).read_text() == "old"
        renames.append((Path(src), Path(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", spy)
    bench.atomic_write_json(target, {"k": [1, 2]})
    assert renames == [(tmp_path / "result.json.tmp", target)]
    assert json.loads(target.read_text()) == {"k": [1, 2]}
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]
