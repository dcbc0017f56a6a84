"""Unit tests for the durable session store (:mod:`repro.runtime.durable`).

The scenarios here are the store-level half of the durability contract:
codec fidelity, atomic snapshot commits, quarantine-and-fallback on
corruption, write-ahead journal replay, torn-tail tolerance, retention GC,
and the :class:`SessionDurability` hot-path hooks with their metric
families.  The process-level half — real ``SIGKILL`` at seeded points —
lives in ``repro.serve.crashtest`` (CI's crash-recovery-smoke job).
"""

import errno
import mmap
import os
import pathlib
import subprocess
import sys
import threading
from collections import Counter

import pytest

from repro.connectors import library
from repro.runtime import durable
from repro.runtime.durable import (
    MAGIC,
    SCHEMA_VERSION,
    DurableStore,
    SessionDurability,
    SessionStore,
    _frame,
    canon,
    checkpoint_to_data,
    decode,
    encode,
)
from repro.runtime.errors import (
    DurabilityError,
    SchemaVersionError,
    SnapshotCorruptError,
)
from repro.runtime.faults import torn_write
from repro.runtime.metrics import MetricFamily, MetricsRegistry
from repro.runtime.ports import Inport, Outport

OP_TIMEOUT = 10.0


def make_checkpoint(name="Merger", n=2):
    conn = library.connector(name, n, default_timeout=OP_TIMEOUT)
    conn.connect(
        [Outport(f"t:o{i}") for i in range(len(conn.tail_vertices))],
        [Inport(f"t:i{i}") for i in range(len(conn.head_vertices))],
    )
    cp = conn.checkpoint()
    conn.close()
    return cp


# -- codec ------------------------------------------------------------------


@pytest.mark.parametrize("value", [
    None,
    42,
    -1.5,
    "plain",
    True,
    [1, "two", None],
    (1, 2, 3),
    ((1, "a"), (2, "b")),
    {"k": "v", "nested": {"t": (1, 2)}},
    {1: "int-key", (2, 3): "tuple-key"},
    {"%t": "tag-collision", "%m": [1], "%p": None},
    [({"x": (1,)}, [2, (3,)])],
])
def test_codec_roundtrip(value):
    out = decode(encode(value))
    assert out == value
    assert type(out) is type(value)


def test_codec_pickle_fallback():
    value = {"s": {1, 2, 3}, "b": b"\x00\xff"}
    assert decode(encode(value)) == value


def test_canon_distinguishes_tuple_from_list():
    assert canon((1, 2)) != canon([1, 2])
    assert canon((1, 2)) == canon((1, 2))
    assert canon({"a": 1, "b": 2}) == canon({"b": 2, "a": 1})


# -- snapshots --------------------------------------------------------------


def test_snapshot_roundtrip(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        gen, nbytes = store.save_snapshot(
            cp, seq=7,
            delivered=[(1, "a"), (2, ("t", 1))],
            suppress=["x", "x"],
            resubmit=[("r", 0)],
            meta={"tenant": "t0", "workers": 2},
        )
        assert gen == 1 and nbytes > 0
        rec = store.recover()
    finally:
        store.close()
    assert rec.outcome == "restored"
    assert rec.generation == 1
    assert checkpoint_to_data(rec.checkpoint) == checkpoint_to_data(cp)
    assert rec.delivered == [(1, "a"), (2, ("t", 1))]
    assert rec.suppress == Counter({canon("x"): 2})
    assert rec.resubmit == [("r", 0)]
    assert rec.seq == 7
    assert rec.meta == {"tenant": "t0", "workers": 2}
    assert not rec.torn and not rec.quarantined


def test_fresh_directory_recovers_fresh(tmp_path):
    store = SessionStore(tmp_path, "empty")
    rec = store.recover()
    assert rec.outcome == "fresh"
    assert rec.checkpoint is None and rec.seq == 0


def test_retention_must_allow_fallback(tmp_path):
    with pytest.raises(DurabilityError):
        SessionStore(tmp_path, "s0", retention=1)


def test_corrupt_newest_falls_back_and_quarantines(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        store.save_snapshot(cp, seq=1, delivered=[(1, "old")])
        gen2, _ = store.save_snapshot(cp, seq=2, delivered=[(1, "old"),
                                                            (2, "new")])
        path = store._snapshot_path(gen2)
        data = bytearray(path.read_bytes())
        data[len(data) // 2] ^= 0x40
        path.write_bytes(bytes(data))

        rec = store.recover()
    finally:
        store.close()
    assert rec.outcome == "fallback"
    assert rec.generation == 1
    assert rec.delivered == [(1, "old")]
    assert len(rec.quarantined) == 1
    corrupt = list(store.dir.glob("*.corrupt"))
    assert [p.name for p in corrupt] == [f"snapshot-{gen2:08d}.ckpt.corrupt"]


def test_all_generations_corrupt_is_a_typed_error(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        for seq in (1, 2):
            gen, _ = store.save_snapshot(cp, seq=seq)
            path = store._snapshot_path(gen)
            path.write_bytes(b"garbage, not a framed record\n")
        with pytest.raises(DurabilityError) as exc:
            store.recover()
    finally:
        store.close()
    assert "every snapshot generation is corrupt" in str(exc.value)


def test_truncated_snapshot_is_corrupt(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        gen, _ = store.save_snapshot(cp, seq=1)
        path = store._snapshot_path(gen)
        data = path.read_bytes()
        path.write_bytes(data[:len(data) - len(data.splitlines()[-1]) - 1])
        with pytest.raises(SnapshotCorruptError):
            store.load_snapshot(gen)
    finally:
        store.close()


def test_quarantined_generation_number_is_never_reused(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        store.save_snapshot(cp, seq=1)
        gen2, _ = store.save_snapshot(cp, seq=2)
        store._snapshot_path(gen2).write_bytes(b"junk\n")
        store.recover()  # quarantines gen2
        gen3, _ = store.save_snapshot(cp, seq=3)
    finally:
        store.close()
    assert gen3 == gen2 + 1


# -- journal ----------------------------------------------------------------


def test_journal_replay_algebra(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        store.save_snapshot(cp, seq=0)
        store.append("submit", 1, "a")     # delivered below
        store.append("deliver", 2, "a")
        store.append("submit", 3, "b")     # aborted
        store.append("abort", 3, "b")
        store.append("submit", 4, "c")     # admitted, never delivered
        rec = store.recover()
    finally:
        store.close()
    assert rec.delivered == [(2, "a")]
    assert rec.resubmit == ["c"]
    assert rec.suppress == Counter()
    assert rec.seq == 4


def test_journal_deliver_without_matching_submit_suppresses(tmp_path):
    # A deliver whose value sits in the restored engine (no post-snapshot
    # admission): the re-emission must be swallowed, not re-acknowledged.
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        store.save_snapshot(cp, seq=0)
        store.append("deliver", 1, ("v", 0))
        rec = store.recover()
    finally:
        store.close()
    assert rec.delivered == [(1, ("v", 0))]
    assert rec.suppress == Counter({canon(("v", 0)): 1})
    assert rec.suppress_values[canon(("v", 0))] == ("v", 0)
    assert rec.resubmit == []


def test_torn_journal_tail_is_dropped(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        gen, _ = store.save_snapshot(cp, seq=0)
        store.append("deliver", 1, "kept")
        store.append("deliver", 2, "torn-away")
        store.close()
        path = store._journal_path(gen)
        data = path.read_bytes()
        path.write_bytes(data[:-3])  # tear mid-record
        rec = store.recover()
    finally:
        store.close()
    assert rec.torn
    assert rec.delivered == [(1, "kept")]
    # the surviving deliver had no post-snapshot admission: its value sits
    # in the restored engine and must be suppressed on re-emission; the
    # torn record vanished entirely
    assert rec.suppress == Counter({canon("kept"): 1})
    assert canon("torn-away") not in rec.suppress


def test_missing_journal_is_empty(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    try:
        gen, _ = store.save_snapshot(cp, seq=0)
        store.close()
        os.unlink(store._journal_path(gen))
        rec = store.recover()
    finally:
        store.close()
    assert rec.outcome == "restored" and not rec.torn


def test_append_requires_open_journal(tmp_path):
    store = SessionStore(tmp_path, "s0")
    with pytest.raises(DurabilityError):
        store.append("submit", 1, "v")
    with pytest.raises(DurabilityError):
        store.save_snapshot(make_checkpoint(), seq=0)
        store.append("frobnicate", 2, "v")
    store.close()


# -- the mapped journal -----------------------------------------------------

APPENDS = [("submit", 1, "a"), ("deliver", 2, ("t", 1)),
           ("submit", 3, {"k": [1, 2]}), ("abort", 3, {"k": [1, 2]})]


def journal_bytes(store, gen, snapshot_seq, appends):
    """What a closed journal holds: its header and one frame per append,
    each framed by ``_frame`` as every writer of the format frames it."""
    return _frame({
        "magic": MAGIC, "version": SCHEMA_VERSION, "kind": "journal",
        "session": store.name, "generation": gen,
        "snapshot_seq": snapshot_seq,
    }) + b"".join(
        _frame({"kind": kind, "seq": seq, "value": encode(value)})
        for kind, seq, value in appends
    )


#: Appends ``pairs`` submit/deliver pairs, then leaves the way SIGKILL
#: would: ``os._exit``, no ``close()``, the preallocation still on disk.
_CRASHING_WRITER = """
import os, sys
from repro.connectors import library
from repro.runtime.durable import SessionStore
from repro.runtime.ports import Inport, Outport

conn = library.connector("Merger", 2)
conn.connect([Outport("o0"), Outport("o1")], [Inport("i0")])
cp = conn.checkpoint()
conn.close()
store = SessionStore(sys.argv[1], "s0")
store.save_snapshot(cp, seq=0)
for i in range(int(sys.argv[2])):
    store.append("submit", 2 * i + 1, f"v{i}")
    store.append("deliver", 2 * i + 2, f"v{i}")
os._exit(0)
"""


def crashed_journal(tmp_path, pairs):
    """A store whose live journal was left by a process that never closed
    it; returns the store and that journal's path."""
    src = str(pathlib.Path(durable.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    subprocess.run([sys.executable, "-c", _CRASHING_WRITER, str(tmp_path),
                    str(pairs)], check=True, timeout=60, env=env)
    store = SessionStore(tmp_path, "s0")
    path = store._journal_path(store._journal_generations()[-1])
    assert path.read_bytes().endswith(b"\0" * 1024)  # still preallocated
    return store, path


def test_closed_journal_is_exactly_its_frames(tmp_path):
    store = SessionStore(tmp_path, "s0")
    gen, _ = store.save_snapshot(make_checkpoint(), seq=0)
    for record in APPENDS:
        store.append(*record)
    store.close()
    data = store._journal_path(gen).read_bytes()
    assert data == journal_bytes(store, gen, 0, APPENDS)
    assert data.endswith(b"\n")


def test_nul_tail_after_an_intact_record_is_not_torn(tmp_path):
    store = SessionStore(tmp_path, "s0")
    try:
        gen, _ = store.save_snapshot(make_checkpoint(), seq=0)
        for record in APPENDS:
            store.append(*record)
        # read while live: the unwritten rest of the chunk is NULs
        assert store._journal_path(gen).read_bytes().endswith(b"\0" * 1024)
        records, torn = store.read_journal(gen)
    finally:
        store.close()
    assert not torn
    assert [(r["kind"], r["seq"], decode(r["value"])) for r in records] \
        == APPENDS


def test_partial_record_before_a_nul_tail_is_torn(tmp_path):
    store = SessionStore(tmp_path, "s0")
    gen, _ = store.save_snapshot(make_checkpoint(), seq=0)
    store.append("deliver", 1, "kept")
    store.close()
    partial = _frame({"kind": "deliver", "seq": 2, "value": "torn-away"})
    with open(store._journal_path(gen), "ab") as fh:
        fh.write(partial[:len(partial) // 2] + b"\0" * 4096)
    records, torn = store.read_journal(gen)
    assert torn
    assert [r["value"] for r in records] == ["kept"]


def test_appends_round_trip_across_growth(tmp_path, monkeypatch):
    monkeypatch.setattr(durable, "JOURNAL_CHUNK", 256)
    store = SessionStore(tmp_path, "s0")
    gen, _ = store.save_snapshot(make_checkpoint(), seq=0)
    appends = [("deliver", i + 1, f"value-{i}") for i in range(200)]
    try:
        for record in appends:
            store.append(*record)
        live, torn = store.read_journal(gen)
    finally:
        store.close()
    assert not torn and [r["seq"] for r in live] == list(range(1, 201))
    data = store._journal_path(gen).read_bytes()
    assert len(data) > 20 * 256  # it grew, chunk by chunk
    assert data == journal_bytes(store, gen, 0, appends)


@pytest.mark.parametrize("fsync", [False, True])
def test_an_append_is_a_copy_and_fsync_flushes_once(tmp_path, monkeypatch,
                                                     fsync):
    calls = Counter()

    class CountingMap(mmap.mmap):
        def flush(self, *args):
            calls["flush"] += 1
            return super().flush(*args)

    real_write, real_fsync = os.write, os.fsync

    def counted(name, real):
        def call(*args):
            calls[name] += 1
            return real(*args)
        return call

    monkeypatch.setattr(mmap, "mmap", CountingMap)
    store = SessionStore(tmp_path, "s0", fsync=fsync)
    try:
        gen, _ = store.save_snapshot(make_checkpoint(), seq=0)
        monkeypatch.setattr(os, "write", counted("write", real_write))
        monkeypatch.setattr(os, "fsync", counted("fsync", real_fsync))
        for i in range(50):
            store.append("deliver", i + 1, f"v{i}")
        monkeypatch.undo()
        records, torn = store.read_journal(gen)
    finally:
        store.close()
    assert calls["write"] == 0 and calls["fsync"] == 0
    assert calls["flush"] == (50 if fsync else 0)
    assert len(records) == 50 and not torn


def no_space(*args):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_a_full_disk_at_journal_open_is_a_typed_error(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "posix_fallocate", no_space, raising=False)
    store = SessionStore(tmp_path, "s0")
    with pytest.raises(DurabilityError, match="cannot open journal"):
        store.save_snapshot(make_checkpoint(), seq=0)
    with pytest.raises(DurabilityError, match="no open journal"):
        store.append("submit", 1, "v")
    store.close()


def test_a_full_disk_at_growth_is_a_typed_error_and_loses_nothing(
        tmp_path, monkeypatch):
    # the growth reserves its blocks, so ENOSPC surfaces there, as an
    # error, and never as SIGBUS from a store into an unbacked page
    monkeypatch.setattr(durable, "JOURNAL_CHUNK", 256)
    store = SessionStore(tmp_path, "s0")
    try:
        gen, _ = store.save_snapshot(make_checkpoint(), seq=0)
        monkeypatch.setattr(os, "posix_fallocate", no_space, raising=False)
        written = 0
        with pytest.raises(DurabilityError, match="cannot append"):
            for written in range(100):
                store.append("deliver", written + 1, f"v{written}")
        assert written > 0
        monkeypatch.undo()  # space freed: the same append goes through
        store.append("deliver", written + 1, f"v{written}")
        records, torn = store.read_journal(gen)
    finally:
        store.close()
    assert not torn
    assert [r["value"] for r in records] == [f"v{i}" for i in
                                             range(written + 1)]


def test_journal_open_fsyncs_the_header_and_the_size_at_once(tmp_path,
                                                            monkeypatch):
    calls = []
    real_extend, real_fsync = durable._extend, os.fsync
    monkeypatch.setattr(durable, "_extend",
                        lambda *a: calls.append("extend") or real_extend(*a))
    monkeypatch.setattr(os, "fsync",
                        lambda fd: calls.append("fsync") or real_fsync(fd))
    store = SessionStore(tmp_path, "s0")
    store.save_snapshot(make_checkpoint(), seq=0)
    store.close()
    # the snapshot's own fsyncs come first; the journal's last
    assert calls[-2:] == ["extend", "fsync"] and calls.count("extend") == 1


def test_close_waits_for_an_append_in_flight(tmp_path):
    """``close()`` truncates the journal to its write cursor, which an
    append advances after its copy.  A close landing in between must wait:
    it may not cut off a record whose append then returns normally."""
    d = SessionDurability(SessionStore(tmp_path, "s0"))
    d.commit(make_checkpoint())
    closed = threading.Event()
    closer = threading.Thread(target=lambda: (d.close(), closed.set()))

    class CloseMidAppend(SessionStore):
        @property
        def fsync(self):
            # read by append between its copy and its cursor advance
            if not closer.is_alive() and not closed.is_set():
                closer.start()
                closed.wait(0.5)  # times out while close waits, as it must
            return False

    d.store.__class__ = CloseMidAppend
    seq = d.on_submit("in-flight")
    closer.join(10.0)
    assert closed.is_set()
    d.store.__class__ = SessionStore
    records, torn = d.store.read_journal(d.store._journal_generations()[-1])
    assert not torn
    assert [(r["seq"], r["value"]) for r in records] == [(seq, "in-flight")]


def test_journal_left_by_os_exit_recovers_every_record(tmp_path):
    store, _ = crashed_journal(tmp_path, pairs=20)
    try:
        rec = store.recover()
    finally:
        store.close()
    assert rec.outcome == "restored" and not rec.torn
    assert rec.delivered == [(2 * i + 2, f"v{i}") for i in range(20)]
    assert rec.resubmit == [] and rec.suppress == Counter()
    assert rec.seq == 40


# -- retention GC -----------------------------------------------------------


def test_gc_keeps_retention_generations(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0", retention=3)
    try:
        for seq in range(6):
            store.save_snapshot(cp, seq=seq)
        gens = store.generations()
        journals = store._journal_generations()
    finally:
        store.close()
    assert gens == [4, 5, 6]
    # journals at/after the oldest kept snapshot survive for replay
    assert journals == [4, 5, 6]


# -- DurableStore root ------------------------------------------------------


def test_durable_store_session_names_roundtrip(tmp_path):
    root = DurableStore(tmp_path)
    cp = make_checkpoint()
    for name in ("plain", "ten@nt/sess ion"):
        s = root.session(name)
        s.save_snapshot(cp, seq=0)
        s.close()
    assert root.sessions() == ["plain", "ten@nt/sess ion"]


# -- SessionDurability ------------------------------------------------------


def test_session_durability_write_ahead_cycle(tmp_path):
    cp = make_checkpoint()
    reg = MetricsRegistry()
    d = SessionDurability(SessionStore(tmp_path, "s0"))
    d.bind(reg)
    try:
        assert d.recover() is None  # fresh
        d.commit(cp, {"tenant": "t0"})

        s1 = d.on_submit("a")
        assert d.on_delivered("a") is True
        s2 = d.on_submit("b")
        d.on_abort(s2, "b")
        assert s2 == s1 + 2  # deliver consumed a sequence number in between
        assert d.book() == [(s1 + 1, "a")]
        assert d.delivered_values() == ["a"]

        counts = dict(reg.counter(
            "repro_durable_journal_records_total").samples())
        assert counts[("s0", "submit")] == 2
        assert counts[("s0", "deliver")] == 1
        assert counts[("s0", "abort")] == 1
        lag = dict(reg.gauge("repro_durable_journal_lag").samples())
        assert lag[("s0",)] == 4
    finally:
        d.close()

    # cold start no. 2: the book survives, the aborted intent does not
    d2 = SessionDurability(SessionStore(tmp_path, "s0"))
    try:
        rec = d2.recover()
        assert rec.outcome == "restored"
        assert d2.delivered_values() == ["a"]
        assert d2.pop_resubmits() == []
    finally:
        d2.close()


def test_session_durability_suppress_consumed_once(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    store.save_snapshot(cp, seq=0, suppress=["v"])
    store.close()

    d = SessionDurability(SessionStore(tmp_path, "s0"))
    try:
        rec = d.recover()
        assert rec.suppress == Counter({canon("v"): 1})
        d.commit(cp)
        assert d.on_delivered("v") is False  # the re-emission: swallowed
        assert d.on_delivered("v") is True   # a fresh copy: acknowledged
        assert d.delivered_values() == ["v"]
    finally:
        d.close()


def test_session_durability_recovery_metrics(tmp_path):
    cp = make_checkpoint()
    store = SessionStore(tmp_path, "s0")
    store.save_snapshot(cp, seq=0)
    store.close()

    reg = MetricsRegistry()
    d = SessionDurability(SessionStore(tmp_path, "s0"))
    d.bind(reg)
    try:
        d.recover()
        d.commit(cp)
        outcomes = dict(reg.counter(
            "repro_durable_recoveries_total").samples())
        assert outcomes[("s0", "restored")] == 1
        nbytes = dict(reg.gauge("repro_durable_snapshot_bytes").samples())
        assert nbytes[("s0",)] > 0
        age = dict(reg.gauge("repro_durable_snapshot_age_seconds").samples())
        assert age[("s0",)] >= 0.0
    finally:
        d.close()


def test_steady_path_computes_no_key_and_looks_up_no_child(tmp_path,
                                                           monkeypatch):
    keys = []
    real_canon = durable.canon
    monkeypatch.setattr(durable, "canon",
                        lambda value: keys.append(value) or real_canon(value))
    reg = MetricsRegistry()
    d = SessionDurability(SessionStore(tmp_path, "s0"))
    d.bind(reg)
    try:
        assert d.recover() is None
        d.commit(make_checkpoint())
        lookups = []
        real_labels = MetricFamily.labels
        monkeypatch.setattr(
            MetricFamily, "labels",
            lambda fam, *lv: lookups.append(lv) or real_labels(fam, *lv))
        for i in range(100):
            seq = d.on_submit(i)
            assert d.on_delivered(i) is True
        d.on_abort(seq, "x")
        monkeypatch.setattr(MetricFamily, "labels", real_labels)
        counts = dict(reg.counter(
            "repro_durable_journal_records_total").samples())
    finally:
        d.close()
    assert keys == [] and lookups == []
    assert counts == {("s0", "submit"): 100, ("s0", "deliver"): 100,
                      ("s0", "abort"): 1}


# -- torn_write fault -------------------------------------------------------


def test_torn_write_is_deterministic(tmp_path):
    content = b"".join(b"%08d some-record-payload\n" % i for i in range(20))
    a, b = tmp_path / "a", tmp_path / "b"
    a.write_bytes(content)
    b.write_bytes(content)
    ra = torn_write(a, 1234)
    rb = torn_write(b, 1234)
    assert a.read_bytes() == b.read_bytes()
    assert {k: v for k, v in ra.items() if k != "path"} \
        == {k: v for k, v in rb.items() if k != "path"}
    assert ra["mode"] in ("truncate", "bitflip")
    assert a.read_bytes() != content


def test_torn_write_varies_with_seed(tmp_path):
    content = b"".join(b"%08d some-record-payload\n" % i for i in range(20))
    outs = set()
    for seed in range(8):
        p = tmp_path / f"f{seed}"
        p.write_bytes(content)
        torn_write(p, seed)
        outs.add(p.read_bytes())
    assert len(outs) > 1


def test_torn_write_only_damages_the_tail_record(tmp_path):
    content = b"".join(b"%08d record-%d\n" % (i, i) for i in range(10))
    prefix = content[:content[:-1].rfind(b"\n") + 1]
    for seed in range(8):  # cover both truncate and bitflip modes
        p = tmp_path / f"f{seed}"
        p.write_bytes(content)
        report = torn_write(p, seed)
        got = p.read_bytes()
        # every record but the last is byte-identical
        assert got[:len(prefix)] == prefix, report
        assert got != content, report


def test_torn_write_missing_file_skips(tmp_path):
    assert torn_write(tmp_path / "nope", 0)["mode"] == "skip"


def test_torn_write_tears_the_last_record_of_a_padded_journal(tmp_path):
    store, path = crashed_journal(tmp_path, pairs=5)
    gen = store._journal_generations()[-1]
    pristine = path.read_bytes()
    modes = set()
    for seed in range(8):  # both modes
        path.write_bytes(pristine)
        report = torn_write(path, seed)
        modes.add(report["mode"])
        assert report["padding"] > 0, report
        records, torn = store.read_journal(gen)
        assert torn, report
        assert [r["seq"] for r in records] == list(range(1, 10)), report
    assert modes == {"truncate", "bitflip"}


def test_tear_safety_reads_a_padded_journals_last_record(tmp_path):
    from repro.serve.crashtest import _journal_tear_is_safe

    _, path = crashed_journal(tmp_path, pairs=2)  # ends in a deliver
    assert _journal_tear_is_safe(path, acked=set())
