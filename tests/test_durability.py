"""Durable backend suite: WAL, recovery, and adversarial crash–reopen.

Three layers:

* **Unit** — record-log framing (torn tails, corrupt records, tail
  repair), segment round-trips with CRC verification, term-pool replay
  giving bit-identical IDs.
* **Crash at every I/O fault site** — a scripted workload is run with
  each ``durable.*`` site armed; the ``on_fire`` hook photographs the
  store directory at the instant of the simulated crash (each log cut
  at its last-fsynced byte, exactly what power loss preserves) and the
  reopened photograph must equal the pre-crash *committed* state —
  never a partial batch.  The surviving in-process store must also
  repair its tail and stay fully usable.
* **Hypothesis crash–reopen machine** — random op streams (adds,
  removes, transactions, graph drops, checkpoints) interleaved with
  crashes at random sites; after every crash the reopened copy must
  equal the model's committed state, at every site, every time.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule

from repro.core import Triple, URI
from repro.core.terms import BNode, Literal
from repro.core.vocabulary import SC, TYPE
from repro.ingest.spill import RunPool
from repro.robustness import FAULTS, InjectedFault
from repro.semantics import rdfs_closure
from repro.store import DurableBackend, StorageError, TripleStore
from repro.store.durable import MAGIC, RecordLog, scan_records
from repro.store.durable.recordlog import frame_record
from repro.store.durable.segments import read_segment, write_segment


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    FAULTS.reset()


@pytest.fixture()
def tmp_store_dir(tmp_path):
    return tmp_path / "store"


def _triple(s, p, o):
    return Triple(
        URI(s) if isinstance(s, str) else s,
        URI(p) if isinstance(p, str) else p,
        URI(o) if isinstance(o, str) else o,
    )


def _graphs_snapshot(store):
    return {name: set(store.graph(name)) for name in store.graph_names()}


def _crash_copy(store_dir, sync_points, dest_parent, keep_tail=0):
    """Photograph *store_dir* as a power loss would leave it.

    Every log file is cut at its last-fsynced byte — plus up to
    *keep_tail* bytes of the unsynced tail, simulating a partially
    written (torn) record that happened to reach the platter.
    """
    dest = Path(tempfile.mkdtemp(dir=dest_parent)) / "crashed"
    shutil.copytree(store_dir, dest)
    for name, synced in sync_points.items():
        target = dest / name
        if target.exists():
            size = target.stat().st_size
            keep = min(size, synced + keep_tail)
            with open(target, "r+b") as f:
                f.truncate(keep)
    return dest


# ---------------------------------------------------------------------------
# Record log
# ---------------------------------------------------------------------------


class TestRecordLog:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.log"
        log = RecordLog(path, 0, 0)
        payloads = [b"alpha", b"", b"\x00" * 1000, "päyload".encode()]
        for p in payloads:
            log.append(p)
        log.sync()
        log.close()
        got, valid_end, size = scan_records(path)
        assert got == payloads
        assert valid_end == size == path.stat().st_size

    def test_torn_tail_is_detected_and_repaired(self, tmp_path):
        path = tmp_path / "x.log"
        log = RecordLog(path, 0, 0)
        log.append(b"kept")
        log.sync()
        log.close()
        whole = path.read_bytes()
        torn = whole + frame_record(b"torn record")[:-3]
        path.write_bytes(torn)
        got, valid_end, size = scan_records(path)
        assert got == [b"kept"]
        assert valid_end == len(whole)
        assert size == len(torn)
        # Reopening repairs the tail, and appends land after the
        # intact prefix.
        log = RecordLog(path, valid_end, size)
        log.append(b"after")
        log.sync()
        log.close()
        got, _, _ = scan_records(path)
        assert got == [b"kept", b"after"]

    def test_corrupt_record_stops_the_scan(self, tmp_path):
        path = tmp_path / "x.log"
        log = RecordLog(path, 0, 0)
        log.append(b"one")
        log.append(b"two")
        log.sync()
        log.close()
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0xFF  # flip a byte inside the last payload
        path.write_bytes(bytes(blob))
        got, valid_end, _ = scan_records(path)
        assert got == [b"one"]
        assert valid_end == len(MAGIC) + 8 + len(b"one")

    def test_missing_or_headerless_file(self, tmp_path):
        assert scan_records(tmp_path / "absent.log") == ([], 0, 0)
        bad = tmp_path / "bad.log"
        bad.write_bytes(b"not a log")
        got, valid_end, size = scan_records(bad)
        assert (got, valid_end) == ([], 0)
        assert size == 9
        # The constructor recreates the header over the junk.
        log = RecordLog(bad, 0, size)
        log.append(b"fresh")
        log.sync()
        log.close()
        assert scan_records(bad)[0] == [b"fresh"]

    def test_truncate_to_drops_unsynced_suffix(self, tmp_path):
        path = tmp_path / "x.log"
        log = RecordLog(path, 0, 0)
        log.append(b"committed")
        log.sync()
        mark = log.size
        log.append(b"doomed")
        log.truncate_to(mark)
        log.append(b"next")
        log.sync()
        log.close()
        assert scan_records(path)[0] == [b"committed", b"next"]


# ---------------------------------------------------------------------------
# Segments
# ---------------------------------------------------------------------------


class TestSegments:
    ROWS = sorted({(1, 2, 3), (1, 2, 4), (5, 0, 1), (2, 2, 2)})

    def test_round_trip_and_warm_views(self, tmp_path):
        meta = write_segment(tmp_path / "g0", self.ROWS)
        assert meta["rows"] == len(self.ROWS)
        runs = read_segment(tmp_path / "g0", meta)
        assert list(runs.rows()) == self.ROWS
        # The POS/OSP views were installed from the files, not rebuilt.
        assert runs._pos is not None and runs._osp is not None
        pos = runs.pos
        assert list(zip(pos.c0, pos.c1, pos.c2)) == sorted(
            (p, o, s) for s, p, o in self.ROWS
        )

    def test_crc_mismatch_raises(self, tmp_path):
        meta = write_segment(tmp_path / "g0", self.ROWS)
        target = tmp_path / "g0.pos.bin"
        blob = bytearray(target.read_bytes())
        blob[0] ^= 0xFF
        target.write_bytes(bytes(blob))
        with pytest.raises(StorageError, match="CRC"):
            read_segment(tmp_path / "g0", meta)

    def test_missing_file_raises(self, tmp_path):
        meta = write_segment(tmp_path / "g0", self.ROWS)
        os.unlink(tmp_path / "g0.osp.bin")
        with pytest.raises(StorageError, match="missing"):
            read_segment(tmp_path / "g0", meta)


# ---------------------------------------------------------------------------
# Engine + durable backend, fault-free
# ---------------------------------------------------------------------------


class TestDurableStore:
    def test_restart_preserves_graphs_terms_and_closure(self, tmp_store_dir):
        store = TripleStore.open(tmp_store_dir)
        store.add(_triple("u:painter", SC, "u:artist"))
        store.add_all(
            [
                _triple("u:frida", TYPE, "u:painter"),
                Triple(URI("u:frida"), URI("u:says"), Literal("¡hola!\n")),
                Triple(BNode("b0"), URI("u:knows"), BNode("b1")),
            ],
            graph="extra",
        )
        with store.transaction():
            store.add(_triple("u:diego", TYPE, "u:painter"))
            store.remove(_triple("u:painter", SC, "u:artist"))
        expected = _graphs_snapshot(store)
        expected_ids = dict(store.term_dict._ids)
        expected_closure = store.closure()
        store.close()

        reopened = TripleStore.open(tmp_store_dir)
        assert _graphs_snapshot(reopened) == expected
        # Term IDs are bit-identical across restart (pool replay).
        assert dict(reopened.term_dict._ids) == expected_ids
        assert reopened.closure() == expected_closure
        reopened.close()

    def test_rolled_back_transaction_is_not_persisted(self, tmp_store_dir):
        store = TripleStore.open(tmp_store_dir)
        store.add(_triple("u:a", "u:p", "u:b"))
        store.begin()
        store.add(_triple("u:x", "u:p", "u:y"))
        store.rollback()
        expected = _graphs_snapshot(store)
        store.close()
        reopened = TripleStore.open(tmp_store_dir)
        assert _graphs_snapshot(reopened) == expected
        reopened.close()

    def test_checkpoint_compacts_and_preserves_state(self, tmp_store_dir):
        store = TripleStore.open(tmp_store_dir)
        for i in range(40):
            store.add(_triple(f"u:s{i}", "u:p", f"u:o{i % 7}"))
        store.remove(_triple("u:s3", "u:p", "u:o3"))
        store.clear("nope-not-there")
        expected = _graphs_snapshot(store)
        store.checkpoint()
        info = store.backend.info()
        assert info["generation"] == 1
        # The WAL was reset: only the old generation's files are gone.
        names = {p.name for p in Path(tmp_store_dir).iterdir()}
        assert "wal-0.log" not in names and "wal-1.log" in names
        store.add(_triple("u:after", "u:p", "u:ckpt"))
        expected["default"].add(_triple("u:after", "u:p", "u:ckpt"))
        store.close()
        reopened = TripleStore.open(tmp_store_dir)
        assert _graphs_snapshot(reopened) == expected
        reopened.close()

    def test_auto_checkpoint_fires_on_wal_growth(self, tmp_store_dir):
        store = TripleStore.open(tmp_store_dir, wal_checkpoint_bytes=2_000)
        for i in range(200):
            store.add(_triple(f"u:s{i}", "u:p", f"u:o{i}"))
        assert store.backend.info()["generation"] >= 1
        assert store.metrics.counter("durable.checkpoints") >= 1
        expected = _graphs_snapshot(store)
        store.close()
        reopened = TripleStore.open(tmp_store_dir)
        assert _graphs_snapshot(reopened) == expected
        reopened.close()

    def test_clear_drop_and_empty_graphs_survive_restart(self, tmp_store_dir):
        store = TripleStore.open(tmp_store_dir)
        store.add(_triple("u:a", "u:p", "u:b"), graph="g1")
        store.add(_triple("u:c", "u:p", "u:d"), graph="g2")
        store.remove(_triple("u:a", "u:p", "u:b"), graph="g1")  # empty, kept
        store.clear("g2")  # name dropped
        expected = _graphs_snapshot(store)
        assert "g1" in expected and "g2" not in expected
        store.close()
        reopened = TripleStore.open(tmp_store_dir)
        assert _graphs_snapshot(reopened) == expected
        reopened.clear()
        reopened.close()
        wiped = TripleStore.open(tmp_store_dir)
        assert _graphs_snapshot(wiped) == {"default": set()}
        wiped.close()

    def test_memory_store_has_no_persistence_overhead_paths(self):
        store = TripleStore()
        assert store.durable is False
        store.add(_triple("u:a", "u:p", "u:b"))
        assert store._durable_ops == []

    def test_wal_counters_flow_through_metrics(self, tmp_store_dir):
        store = TripleStore.open(tmp_store_dir)
        store.add(_triple("u:a", "u:p", "u:b"))
        assert store.metrics.counter("wal.appends") >= 2  # ops + commit
        assert store.metrics.counter("wal.fsyncs") >= 1
        assert store.metrics.counter("wal.terms.appends") >= 3
        store.close()
        reopened = TripleStore.open(tmp_store_dir)
        assert reopened.metrics.counter("wal.recovered_batches") == 1
        reopened.close()

    def test_poisoned_backend_refuses_further_commits(
        self, tmp_store_dir, monkeypatch
    ):
        store = TripleStore.open(tmp_store_dir)
        store.add(_triple("u:a", "u:p", "u:b"))

        def broken_truncate(self, offset):
            raise OSError("no repair for you")

        monkeypatch.setattr(RecordLog, "truncate_to", broken_truncate)
        FAULTS.arm("durable.wal.pre_fsync")
        with pytest.raises(InjectedFault):
            store.add(_triple("u:c", "u:p", "u:d"))
        FAULTS.reset()
        monkeypatch.undo()
        with pytest.raises(StorageError, match="poisoned"):
            store.add(_triple("u:e", "u:p", "u:f"))
        store.close()
        # Reopening recovers.  The failed batch was fully flushed (the
        # fault fired between flush and fsync) and the broken repair
        # never cut it, so on this machine's filesystem the intact
        # commit record makes it part of the recovered state — the
        # "may survive whole" arm of the all-or-nothing contract.
        reopened = TripleStore.open(tmp_store_dir)
        assert _graphs_snapshot(reopened) == {
            "default": {
                _triple("u:a", "u:p", "u:b"),
                _triple("u:c", "u:p", "u:d"),
            }
        }
        reopened.add(_triple("u:e", "u:p", "u:f"))
        reopened.close()


# ---------------------------------------------------------------------------
# Crash simulation at every durable I/O fault site
# ---------------------------------------------------------------------------

#: (site, on_hit) pairs covering both logs' post-write and pre-fsync
#: windows.  on_hit=2 for wal.post_write lands mid-batch (after the
#: first of several records), the nastiest torn-batch shape.
_COMMIT_CRASH_SITES = [
    ("durable.terms.post_write", 1),
    ("durable.terms.post_write", 2),
    ("durable.terms.pre_fsync", 1),
    ("durable.wal.post_write", 1),
    ("durable.wal.post_write", 2),
    ("durable.wal.pre_fsync", 1),
]


class TestCrashRecovery:
    def _run_workload_crashing_at(
        self, site, on_hit, tmp_path, keep_tail=0
    ):
        """Crash batch 3 of a 4-batch workload at *site*; reopen the
        photograph; return (reopened snapshot, committed-prefix
        snapshots, surviving store)."""
        store_dir = tmp_path / "store"
        store = TripleStore.open(store_dir)
        committed = []
        store.add(_triple("u:painter", SC, "u:artist"))       # batch 1
        committed.append(_graphs_snapshot(store))
        store.add_all(                                         # batch 2
            [
                _triple("u:frida", TYPE, "u:painter"),
                Triple(URI("u:frida"), URI("u:says"), Literal("hi")),
            ],
            graph="extra",
        )
        committed.append(_graphs_snapshot(store))

        crashed = {}

        def photograph(_site):
            crashed["dir"] = _crash_copy(
                store_dir,
                store.backend.sync_points(),
                tmp_path,
                keep_tail=keep_tail,
            )

        FAULTS.arm(site, on_hit=on_hit, on_fire=photograph)
        with pytest.raises(InjectedFault):
            store.add_all(                                     # batch 3
                [
                    _triple("u:diego", TYPE, "u:painter"),
                    _triple("u:diego", "u:knows", "u:frida"),
                ]
            )
        FAULTS.reset()
        assert "dir" in crashed, f"scenario never reached {site}"
        reopened = TripleStore.open(crashed["dir"])
        snapshot = _graphs_snapshot(reopened)
        reopened.close()
        return snapshot, committed, store

    @pytest.mark.parametrize("site,on_hit", _COMMIT_CRASH_SITES)
    def test_crash_mid_commit_recovers_committed_prefix(
        self, site, on_hit, tmp_path
    ):
        snapshot, committed, store = self._run_workload_crashing_at(
            site, on_hit, tmp_path
        )
        # Strict power loss: nothing of batch 3 was fsynced, so the
        # reopened store is exactly the two-batch committed state.
        assert snapshot == committed[-1]
        # The surviving in-process store repaired its tail and rolled
        # the failed batch back; it must still work end to end.
        assert _graphs_snapshot(store) == committed[-1]
        store.add(_triple("u:new", "u:p", "u:after"))
        assert store.closure() == rdfs_closure(store.dataset())
        store.close()

    @pytest.mark.parametrize("site,on_hit", _COMMIT_CRASH_SITES)
    def test_crash_with_torn_tail_never_yields_partial_batch(
        self, site, on_hit, tmp_path
    ):
        # Keep 13 bytes of the unsynced tail: a torn record fragment.
        snapshot, committed, store = self._run_workload_crashing_at(
            site, on_hit, tmp_path, keep_tail=13
        )
        assert snapshot == committed[-1]
        store.close()

    def test_flushed_but_unfsynced_batch_may_survive_whole(self, tmp_path):
        """At wal.pre_fsync the full batch is in the file (flushed);
        if the OS happened to write it out, recovery must surface the
        *whole* batch — the all-or-nothing contract's other arm."""
        store_dir = tmp_path / "store"
        store = TripleStore.open(store_dir)
        store.add(_triple("u:a", "u:p", "u:b"))
        before = _graphs_snapshot(store)
        crashed = {}

        def photograph(_site):
            # Copy WITHOUT truncation: every flushed byte survived.
            dest = Path(tempfile.mkdtemp(dir=tmp_path)) / "crashed"
            shutil.copytree(store_dir, dest)
            crashed["dir"] = dest

        FAULTS.arm("durable.wal.pre_fsync", on_fire=photograph)
        with pytest.raises(InjectedFault):
            store.add(_triple("u:c", "u:p", "u:d"))
        FAULTS.reset()
        after = dict(before)
        after["default"] = before["default"] | {_triple("u:c", "u:p", "u:d")}
        reopened = TripleStore.open(crashed["dir"])
        assert _graphs_snapshot(reopened) in (before, after)
        assert _graphs_snapshot(reopened) == after  # C record was flushed
        reopened.close()
        store.close()

    @pytest.mark.parametrize(
        "site,on_hit",
        [
            ("durable.checkpoint.mid_compaction", 1),
            ("durable.checkpoint.mid_compaction", 2),
            ("durable.checkpoint.mid_compaction", 3),
            ("durable.checkpoint.pre_rename", 1),
        ],
    )
    def test_crash_mid_checkpoint_keeps_old_generation(
        self, site, on_hit, tmp_path
    ):
        store_dir = tmp_path / "store"
        store = TripleStore.open(store_dir)
        for i in range(25):
            store.add(_triple(f"u:s{i}", "u:p", f"u:o{i % 5}"), graph="g")
        expected = _graphs_snapshot(store)
        crashed = {}

        def photograph(_site):
            dest = Path(tempfile.mkdtemp(dir=tmp_path)) / "crashed"
            shutil.copytree(store_dir, dest)
            crashed["dir"] = dest

        FAULTS.arm(site, on_hit=on_hit, on_fire=photograph)
        with pytest.raises(InjectedFault):
            store.checkpoint()
        FAULTS.reset()
        assert "dir" in crashed, f"checkpoint never reached {site}"
        reopened = TripleStore.open(crashed["dir"])
        assert _graphs_snapshot(reopened) == expected
        # Recovery swept the half-built generation's stray files.
        names = {p.name for p in Path(crashed["dir"]).iterdir()}
        assert not any(n.startswith("segments-1") for n in names)
        assert "wal-1.log" not in names
        reopened.close()
        # The in-process store kept serving the old generation and can
        # still checkpoint successfully afterwards.
        assert _graphs_snapshot(store) == expected
        store.checkpoint()
        assert store.backend.info()["generation"] >= 1
        store.close()


# ---------------------------------------------------------------------------
# Hypothesis crash–reopen machine
# ---------------------------------------------------------------------------

_SUBJECTS = [f"u:s{i}" for i in range(6)]
_OBJECTS = [f"u:o{i}" for i in range(4)]
_GRAPHS = ["default", "g1", "g2"]

_CRASH_SITES = st.sampled_from(
    [
        "durable.terms.post_write",
        "durable.terms.pre_fsync",
        "durable.wal.post_write",
        "durable.wal.pre_fsync",
    ]
)


class CrashReopenMachine(RuleBasedStateMachine):
    """Random committed workloads interleaved with crashes.

    The model tracks exactly what a correct store must contain after
    each *committed* operation; a crash photographs the directory at
    its durable prefix and the reopened photograph must equal the
    model — at every site, after any op sequence.
    """

    @initialize()
    def open_store(self):
        self.tmp = Path(tempfile.mkdtemp(prefix="repro-crashmachine-"))
        self.store_dir = self.tmp / "store"
        self.store = TripleStore.open(self.store_dir)
        self.model = {"default": set()}

    def teardown(self):
        try:
            self.store.close()
        finally:
            shutil.rmtree(self.tmp, ignore_errors=True)

    def _model_add(self, t, graph):
        self.model.setdefault(graph, set()).add(t)

    @rule(
        s=st.sampled_from(_SUBJECTS),
        o=st.sampled_from(_OBJECTS),
        graph=st.sampled_from(_GRAPHS),
    )
    def add(self, s, o, graph):
        t = _triple(s, "u:p", o)
        self.store.add(t, graph=graph)
        self._model_add(t, graph)

    @rule(
        s=st.sampled_from(_SUBJECTS),
        o=st.sampled_from(_OBJECTS),
        graph=st.sampled_from(_GRAPHS),
    )
    def remove(self, s, o, graph):
        t = _triple(s, "u:p", o)
        self.store.remove(t, graph=graph)
        self.model.get(graph, set()).discard(t)

    @rule(
        pairs=st.lists(
            st.tuples(st.sampled_from(_SUBJECTS), st.sampled_from(_OBJECTS)),
            min_size=1,
            max_size=4,
        ),
        graph=st.sampled_from(_GRAPHS),
    )
    def txn_batch(self, pairs, graph):
        with self.store.transaction():
            for s, o in pairs:
                t = _triple(s, "u:q", o)
                self.store.add(t, graph=graph)
                self._model_add(t, graph)

    @rule(graph=st.sampled_from(["g1", "g2"]))
    def drop_graph(self, graph):
        self.store.clear(graph)
        self.model.pop(graph, None)

    @rule()
    def checkpoint(self):
        self.store.checkpoint()

    @rule(
        site=_CRASH_SITES,
        on_hit=st.integers(min_value=1, max_value=3),
        keep_tail=st.sampled_from([0, 7]),
        s=st.sampled_from(_SUBJECTS),
    )
    def crash_and_verify(self, site, on_hit, keep_tail, s):
        # A fresh subject string forces new term-pool records, so the
        # terms.* sites are genuinely reachable.
        t = _triple(s + ":fresh" + str(len(self.model)), "u:r", "u:new")
        crashed = {}

        def photograph(_site):
            crashed["dir"] = _crash_copy(
                self.store_dir,
                self.store.backend.sync_points(),
                self.tmp,
                keep_tail=keep_tail,
            )

        FAULTS.arm(site, on_hit=on_hit, on_fire=photograph)
        try:
            self.store.add(t)
            fired = False
        except InjectedFault:
            fired = True
        finally:
            FAULTS.reset()
        if not fired:
            # on_hit exceeded the site's dynamic hits for one add;
            # the write committed normally.
            self._model_add(t, "default")
            return
        assert "dir" in crashed
        reopened = TripleStore.open(crashed["dir"])
        try:
            assert _graphs_snapshot(reopened) == {
                name: set(rows) for name, rows in self.model.items()
            }
        finally:
            reopened.close()
        # The surviving store rolled the op back; model unchanged.


CrashReopenMachine.TestCase.settings = settings(
    max_examples=50 if os.environ.get("REPRO_CHAOS") else 20,
    stateful_step_count=12,
    deadline=None,
)
TestCrashReopen = CrashReopenMachine.TestCase


# ---------------------------------------------------------------------------
# Restart survival across real processes (satellite: load → kill → open)
# ---------------------------------------------------------------------------

_SURVIVAL_DATA = """\
painter sc artist .
paints dom painter .
Picasso paints Guernica .
Frida paints TwoFridas .
"""

_SURVIVAL_QUERY = """\
CONSTRUCT { ?X status known-artist . }
WHERE { ?X type artist . }
"""

#: Run by the "crashed writer" process: commit one more triple into the
#: store, scribble a torn record fragment onto the live WAL, and die
#: hard — no close(), no atexit, exactly what kill -9 preserves.
_KILLED_WRITER = """\
import os, sys
from repro.core import Triple, URI
from repro.store import TripleStore

store_dir = sys.argv[1]
store = TripleStore.open(store_dir)
store.add(Triple(URI("Rivera"), URI("paints"), URI("ManAtCrossroads")))
wal = store.backend.info()["wal_file"]
with open(os.path.join(store_dir, wal), "ab") as f:
    f.write(b"\\x99" * 13)  # in-flight record torn by the crash
    f.flush()
os._exit(1)
"""

#: Run by the fresh reader process: the reopened store must hold the
#: committed dataset, its closure must be the rule system's, and its
#: answers are printed for the caller to check.
_REOPEN_VERIFIER = """\
import sys
from repro.rdfio.ntriples import parse_ntriples, serialize_ntriples
from repro.rdfio.query_syntax import parse_query
from repro.semantics import rdfs_closure_by_rules
from repro.store import TripleStore

store_dir, data_path, query_path = sys.argv[1:4]
expected = parse_ntriples(open(data_path).read())
store = TripleStore.open(store_dir)
assert set(store.dataset()) == set(expected), "dataset drift after reopen"
assert store.closure() == rdfs_closure_by_rules(expected), "closure drift"
answer_text = serialize_ntriples(
    store.query(parse_query(open(query_path).read()))
)
store.close()
sys.stdout.write(answer_text)
"""


class TestRestartSurvival:
    """``repro load --store`` → hard-killed writer → ``repro open``.

    Each stage is a real process: the loader exits, a second process
    commits one batch and dies via ``os._exit`` with a torn record on
    the WAL tail, ``repro open`` must recover without error, and a
    fresh reader process must see the rule system's closure and the
    expected query answers.
    """

    def _run(self, argv, **kw):
        env = dict(
            os.environ,
            PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"),
        )
        return subprocess.run(
            [sys.executable] + argv,
            capture_output=True,
            text=True,
            env=env,
            **kw,
        )

    def test_load_kill_open_round_trip_under_all_kernels(self, tmp_path):
        data = tmp_path / "data.nt"
        data.write_text(_SURVIVAL_DATA)
        query = tmp_path / "q.rq"
        query.write_text(_SURVIVAL_QUERY)
        full = tmp_path / "full.nt"  # what the store must hold post-crash
        full.write_text(
            _SURVIVAL_DATA + "Rivera paints ManAtCrossroads .\n"
        )
        store_dir = str(tmp_path / "store")
        loaded = self._run(
            ["-m", "repro.cli", "load", str(data), "--store", store_dir],
            check=True,
        )
        assert "store new triples:  4" in loaded.stdout
        # The writer always dies: exit code 1 from os._exit, and its
        # committed batch plus 13 bytes of torn garbage on the WAL.
        killed = self._run(["-c", _KILLED_WRITER, store_dir])
        assert killed.returncode == 1, killed.stderr
        # `repro open` on the torn WAL recovers without error and
        # reports exactly what recovery did.
        opened = self._run(
            ["-m", "repro.cli", "open", store_dir], check=True
        )
        assert "wal.recovered_batches:  1" in opened.stdout
        assert "wal.torn_tail_bytes:    13" in opened.stdout
        assert "triples (dataset):  5" in opened.stdout
        verified = self._run(
            ["-c", _REOPEN_VERIFIER, store_dir, str(full), str(query)]
        )
        assert verified.returncode == 0, verified.stderr
        # Every painter, the crashed writer's Rivera included, is an
        # artist through dom + sc.
        assert sorted(verified.stdout.splitlines()) == [
            f"{name} status known-artist ."
            for name in ("Frida", "Picasso", "Rivera")
        ]


# ---------------------------------------------------------------------------
# Spill cleanup (satellite: RunPool exception paths)
# ---------------------------------------------------------------------------


class TestSpillCleanup:
    ROWS = [[(i, j, j) for j in range(64)] for i in range(8)]

    def test_failed_spill_keeps_run_and_removes_partial_file(self, tmp_path):
        pool = RunPool(max_bytes=1, tmp_dir=str(tmp_path))
        FAULTS.arm("ingest.spill.write", on_hit=3)
        with pytest.raises(InjectedFault):
            for run in self.ROWS:
                pool.add(sorted(run))
        FAULTS.reset()
        spill_dir = pool._dir
        assert spill_dir is not None
        files = sorted(os.listdir(spill_dir))
        assert len(files) == pool.spills == 2
        # No partial file for the failed third spill, and no data loss:
        # the merge still sees every row ever added.
        added = {r for run in self.ROWS[: self._runs_added(pool)] for r in run}
        assert set(pool.merge()) == added
        pool.close()
        assert not os.path.exists(spill_dir)

    @staticmethod
    def _runs_added(pool):
        return len(pool._runs) + len(pool._spilled)

    def test_interrupt_mid_spill_is_clean(self, tmp_path):
        pool = RunPool(max_bytes=1, tmp_dir=str(tmp_path))
        FAULTS.arm("ingest.spill.write", on_hit=2, exc=KeyboardInterrupt)
        pool.add(sorted(self.ROWS[0]))
        with pytest.raises(KeyboardInterrupt):
            pool.add(sorted(self.ROWS[1]))
        FAULTS.reset()
        assert pool.spills == 1
        assert len(os.listdir(pool._dir)) == 1
        assert set(pool.merge()) == set(self.ROWS[0]) | set(self.ROWS[1])
        pool.close()
