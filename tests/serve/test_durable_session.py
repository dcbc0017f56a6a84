"""Durable FarmSession + CoordinatorService: crash-consistent cold starts.

These are the in-process halves of the kill-9 story (docs/DURABILITY.md):
a ``quarantine()`` stands in for the crash — no drain, no final snapshot,
the journal left exactly as the write-ahead hooks put it — and a second
service incarnation over the same ``state_dir`` must recover the session
with its exactly-once delivery book intact.  The subprocess harness with
real ``SIGKILL`` is ``python -m repro serve --crash-test`` (exercised by
the smoke test at the bottom and by CI's crash-recovery-smoke job).
"""

import gc
import json
import os
import pathlib
import subprocess
import sys
import time
import weakref

import pytest

from repro.runtime import durable
from repro.runtime.errors import (
    DurabilityError,
    RuntimeProtocolError,
    SchemaVersionError,
)
from repro.runtime.overload import OverloadPolicy
from repro.serve.daemon import handle
from repro.serve.service import CoordinatorService
from repro.serve.session import FarmSession, SessionState, SessionStateError

BLOCK = OverloadPolicy("block")
WAIT = 15.0


def wait_delivered(session, n, timeout=WAIT):
    deadline = time.monotonic() + timeout
    while len(session.delivered) < n:
        assert time.monotonic() < deadline, (len(session.delivered), n)
        time.sleep(0.01)


def test_durable_requires_durability():
    with CoordinatorService() as svc:
        s = svc.open_session("a", policy=BLOCK)
        with pytest.raises(RuntimeProtocolError):
            s.durable_checkpoint()
        assert svc.recover_sessions() == []


def test_exactly_once_book_across_three_incarnations(tmp_path):
    svc1 = CoordinatorService(state_dir=tmp_path)
    s = svc1.open_session("a", policy=BLOCK)
    for i in range(10):
        assert s.submit(f"v{i}") == "ok"
    wait_delivered(s, 10)
    svc1.durable_checkpoint("a")
    for i in range(10, 15):
        assert s.submit(f"v{i}") == "ok"
    wait_delivered(s, 15)
    book1 = list(s.delivered)
    # simulate kill -9: no drain, no final snapshot — journal as-is on disk
    svc1.quarantine("a")
    svc1.close()

    svc2 = CoordinatorService(state_dir=tmp_path)
    assert svc2.recover_sessions() == ["a"]
    s2 = svc2.session("a")
    assert s2.delivered == book1
    rec = s2.durability.last_recovery
    assert rec.outcome == "restored"
    # the 5 post-snapshot deliveries came back from the journal, not disk
    assert rec.generation >= 1 and len(rec.delivered) == 15
    for i in range(15, 20):
        assert s2.submit(f"v{i}") == "ok"
    wait_delivered(s2, 20)
    book2 = list(s2.delivered)
    svc2.close()

    svc3 = CoordinatorService(state_dir=tmp_path)
    assert svc3.recover_sessions() == ["a"]
    s3 = svc3.session("a")
    assert s3.delivered == book2
    assert sorted(s3.delivered) == sorted(f"v{i}" for i in range(20))
    svc3.close()


def test_suppress_path_no_duplicate_delivery(tmp_path):
    """Crash after a buffered value's delivery was journaled: the restored
    engine re-emits it, the suppress set swallows exactly one copy."""
    svc1 = CoordinatorService(state_dir=tmp_path)
    s = svc1.open_session("a", policy=BLOCK)
    s._gate.clear()            # park the workers
    time.sleep(0.1)
    assert s.submit("b0", timeout=WAIT) == "ok"   # buffered in the engine
    cp = s.durable_checkpoint()
    assert any(cp.buffers.values()), cp.buffers
    wait_delivered(s, 1)       # durable_checkpoint resumed the workers
    svc1.quarantine("a")       # crash AFTER the delivery was journaled
    svc1.close()

    svc2 = CoordinatorService(state_dir=tmp_path)
    svc2.recover_sessions()
    s2 = svc2.session("a")
    rec = s2.durability.last_recovery
    assert sum(rec.suppress.values()) == 1
    assert rec.resubmit == []
    time.sleep(1.0)            # restored engine re-emits the buffered value
    assert s2.delivered == ["b0"], s2.delivered
    svc2.close()


def test_resubmit_path_no_lost_admission(tmp_path):
    """Crash with an acknowledged submit that never reached a snapshot or a
    delivery record: recovery re-injects it from the journal intent."""
    svc1 = CoordinatorService(state_dir=tmp_path)
    s = svc1.open_session("a", policy=BLOCK)
    s._gate.clear()
    time.sleep(0.1)
    assert s.submit("r0", timeout=WAIT) == "ok"
    svc1.quarantine("a")       # the value exists only in the journal
    svc1.close()

    svc2 = CoordinatorService(state_dir=tmp_path)
    svc2.recover_sessions()
    s2 = svc2.session("a")
    rec = s2.durability.last_recovery
    assert rec.resubmit == ["r0"]
    assert sum(rec.suppress.values()) == 0
    wait_delivered(s2, 1)
    time.sleep(0.3)            # would catch a duplicate re-injection
    assert s2.delivered == ["r0"], s2.delivered
    svc2.close()


def test_recover_sessions_rebuilds_configuration(tmp_path):
    svc1 = CoordinatorService(state_dir=tmp_path)
    svc1.open_session("cfg", tenant="acme", workers=3, service_time=0.001,
                      policy=OverloadPolicy("block", max_pending=9))
    svc1.close()

    svc2 = CoordinatorService(state_dir=tmp_path)
    assert svc2.recover_sessions() == ["cfg"]
    s = svc2.session("cfg")
    assert s.tenant == "acme"
    assert s.workers == 3
    assert s.policy.kind == "block" and s.policy.max_pending == 9
    # idempotent: a second call skips the already-open name
    assert svc2.recover_sessions() == []
    svc2.close()


def test_state_dir_from_a_selectable_backend_cold_starts_on_the_default(
        tmp_path, monkeypatch):
    """A state directory written when a session could pick its engine
    backend carries that choice in the snapshot metadata.  The backend is
    gone (docs/DECISIONS.md row 13) and checkpoints were byte-compatible
    across backends, so recovery ignores the two keys and rebuilds on the
    default engine with the book intact."""
    old_meta = FarmSession._durable_meta
    # The metadata shape of that release, written by hand.  The process
    # count's key is spelled in two pieces so that a search of the tree for
    # the removed parameter finds no user of it.
    legacy = {"concurrency": "workers", "engine_" "workers": 2}
    monkeypatch.setattr(FarmSession, "_durable_meta",
                        lambda self: {**old_meta(self), **legacy})
    svc1 = CoordinatorService(state_dir=tmp_path)
    s = svc1.open_session("old", policy=BLOCK)
    for i in range(6):
        assert s.submit(f"v{i}") == "ok"
    wait_delivered(s, 6)
    svc1.durable_checkpoint("old")
    for i in range(6, 9):
        assert s.submit(f"v{i}") == "ok"
    wait_delivered(s, 9)
    book1 = list(s.delivered)
    svc1.quarantine("old")     # the crash: journal as the hooks left it
    svc1.close()
    monkeypatch.undo()

    svc2 = CoordinatorService(state_dir=tmp_path)
    assert svc2.durable.session("old").peek_meta().items() >= legacy.items()
    assert svc2.recover_sessions() == ["old"]
    s2 = svc2.session("old")
    assert s2.connector.stats()["concurrency"] == "regions"
    assert s2.durability.last_recovery.outcome == "restored"
    assert s2.delivered == book1
    for i in range(9, 12):
        assert s2.submit(f"v{i}") == "ok"
    wait_delivered(s2, 12)
    svc2.close()
    # exactly once: every acknowledged submit delivered, none twice
    assert sorted(s2.delivered) == sorted(f"v{i}" for i in range(12))
    assert not list(s2.dead_letters()) and not s2.dropped


def test_state_dir_naming_a_removed_policy_kind_is_refused(
        tmp_path, monkeypatch):
    """Metadata written when a session could pick ``shed_oldest``: cold
    recovery raises the ``ValueError`` naming the kind, opens nothing under
    another policy, and leaves the state directory as it was."""
    old_meta = FarmSession._durable_meta
    legacy = {"policy": {"kind": "shed_oldest", "max_pending": 1,
                         "dead_letter_capacity": 256}}
    monkeypatch.setattr(FarmSession, "_durable_meta",
                        lambda self: {**old_meta(self), **legacy})
    svc1 = CoordinatorService(state_dir=tmp_path)
    svc1.open_session("old", policy=BLOCK)
    svc1.durable_checkpoint("old")
    svc1.quarantine("old")
    svc1.close()
    monkeypatch.undo()
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    svc2 = CoordinatorService(state_dir=tmp_path)
    try:
        with pytest.raises(ValueError, match="'shed_oldest'"):
            svc2.recover_sessions()
        assert svc2.status() == {}
        with pytest.raises(RuntimeProtocolError, match="unknown session"):
            svc2.session("old")
    finally:
        svc2.close()
    assert {p: p.read_bytes() for p in tmp_path.rglob("*")
            if p.is_file()} == files


def test_version_1_state_dir_is_refused_and_left_in_place(
        tmp_path, monkeypatch):
    """A state directory from when a session's connector was partitioned:
    version-1 headers.  A cold service refuses it with the typed
    SchemaVersionError and renames nothing (no ``*.corrupt``); a session
    it opens afresh is one region."""
    monkeypatch.setattr(durable, "SCHEMA_VERSION", 1)
    svc1 = CoordinatorService(state_dir=tmp_path)
    s = svc1.open_session("old", policy=BLOCK)
    for i in range(4):
        assert s.submit(f"v{i}") == "ok"
    wait_delivered(s, 4)
    svc1.durable_checkpoint("old")
    for i in range(4, 7):
        assert s.submit(f"v{i}") == "ok"  # journaled past the snapshot
    wait_delivered(s, 7)
    svc1.quarantine("old")
    svc1.close()
    monkeypatch.undo()
    files = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    assert any(p.name.startswith("journal-") for p in files)

    svc2 = CoordinatorService(state_dir=tmp_path)
    try:
        with pytest.raises(SchemaVersionError) as exc:
            svc2.recover_sessions()
        assert (exc.value.version, exc.value.supported) == (1, 2)
        with pytest.raises(SchemaVersionError):
            svc2.durable.session("old").recover()
        assert {p: p.read_bytes() for p in tmp_path.rglob("*")
                if p.is_file()} == files
        fresh = svc2.open_session("new", policy=BLOCK)
        assert len(fresh.connector.engine.regions) == 1
    finally:
        svc2.close()


def test_recovery_metric_counts_cold_starts(tmp_path):
    svc1 = CoordinatorService(state_dir=tmp_path)
    svc1.open_session("m", policy=BLOCK)
    svc1.close()

    svc2 = CoordinatorService(state_dir=tmp_path)
    svc2.recover_sessions()
    reg = svc2.session("m").registry
    fam = reg.counter("repro_durable_recoveries_total")
    assert dict(fam.samples())[("m", "restored")] == 1
    svc2.close()


def test_auto_checkpoint_commits_in_the_background(tmp_path):
    svc = CoordinatorService(state_dir=tmp_path, auto_checkpoint=0.05)
    s = svc.open_session("auto", policy=BLOCK)
    assert s.submit("x") == "ok"
    wait_delivered(s, 1)
    store = s.durability.store
    deadline = time.monotonic() + WAIT
    # open() committed generation 1; the loop must add more on its own
    while max(store.generations()) < 2:
        assert time.monotonic() < deadline, store.generations()
        time.sleep(0.02)
    svc.close()


def test_session_holds_only_its_newest_checkpoint(tmp_path):
    """50 durable checkpoints leave exactly one snapshot alive in memory:
    the session keeps the newest, not a history."""
    with CoordinatorService(state_dir=tmp_path) as svc:
        s = svc.open_session("one", policy=BLOCK)
        refs = [weakref.ref(svc.durable_checkpoint("one")) for _ in range(50)]
        gc.collect()
        alive = [r() for r in refs if r() is not None]
        assert alive == [s.last_checkpoint]


@pytest.mark.parametrize("op", ["durable_checkpoint", "rolling_restart"])
def test_failed_commit_does_not_wedge_the_farm(tmp_path, monkeypatch, op):
    """A snapshot commit that fails (a full disk) surfaces to the caller of
    either admin op, and the session serves again: RUNNING, and the next
    submit is delivered."""
    save = durable.SessionStore.save_snapshot
    armed = []

    def save_once_failing(self, *args, **kwargs):
        if armed:
            armed.clear()
            raise DurabilityError("no space left on device")
        return save(self, *args, **kwargs)

    monkeypatch.setattr(durable.SessionStore, "save_snapshot",
                        save_once_failing)
    with CoordinatorService(state_dir=tmp_path) as svc:
        s = svc.open_session("full", policy=BLOCK)
        for round_ in range(2):
            armed.append(True)
            with pytest.raises(DurabilityError):
                getattr(svc, op)("full")
            assert not armed, "the commit was never attempted"
            assert s.state is SessionState.RUNNING
            assert s.submit(f"v{round_}", timeout=WAIT) == "ok"
            wait_delivered(s, round_ + 1)
        assert s.delivered == ["v0", "v1"]


@pytest.mark.parametrize("end", ["close_session", "quarantine"])
@pytest.mark.parametrize("op", ["durable_checkpoint", "rolling_restart"])
def test_admin_ops_refuse_a_session_that_is_not_running(tmp_path, op, end):
    """A snapshot op on a closed or quarantined session fails at once with
    SessionStateError and leaves both gates shut: a later submit is still
    refused with SessionStateError."""
    with CoordinatorService(state_dir=tmp_path) as svc:
        s = svc.open_session("gone", policy=BLOCK)
        getattr(svc, end)("gone")
        start = time.monotonic()
        with pytest.raises(SessionStateError):
            getattr(svc, op)("gone")
        assert time.monotonic() - start < 1.0
        with pytest.raises(SessionStateError):
            s.submit("late", timeout=0.1)


# -- the JSON-lines daemon dispatch ----------------------------------------


def test_daemon_handle_roundtrip(tmp_path):
    svc = CoordinatorService(state_dir=tmp_path)
    try:
        resp, alive = handle(svc, {"op": "open", "name": "d",
                                   "policy": {"kind": "block"}})
        assert resp["ok"] and alive
        resp, _ = handle(svc, {"op": "submit", "name": "d", "value": "v0"})
        assert resp["ok"] and resp["result"] == "ok"
        resp, _ = handle(svc, {"op": "checkpoint", "name": "d"})
        assert resp["ok"]
        deadline = time.monotonic() + WAIT
        while True:
            resp, _ = handle(svc, {"op": "delivered", "name": "d"})
            if resp["values"] == ["v0"]:
                break
            assert time.monotonic() < deadline, resp
            time.sleep(0.01)
        resp, _ = handle(svc, {"op": "status"})
        assert resp["ok"] and "d" in resp["sessions"]
        resp, _ = handle(svc, {"op": "nonsense"})
        assert not resp["ok"] and resp["error"]
        resp, _ = handle(svc, {"op": "close", "name": "d"})
        assert resp["ok"]
        start = time.monotonic()
        resp, _ = handle(svc, {"op": "checkpoint", "name": "d"})
        assert resp["error"] == "SessionStateError"
        assert time.monotonic() - start < 1.0
        resp, alive = handle(svc, {"op": "shutdown"})
        assert resp["ok"] and not alive
    finally:
        svc.close()
    assert json.dumps(resp)  # every response is JSON-serializable


def test_daemon_refuses_a_removed_policy_kind_and_keeps_serving():
    svc = CoordinatorService()
    try:
        resp, alive = handle(svc, {
            "op": "open", "name": "d",
            "policy": {"kind": "fail_fast", "max_pending": 0}})
        assert alive and resp["ok"] is False
        assert resp["error"] == "ValueError"
        assert "'fail_fast'" in resp["message"]
        resp, alive = handle(svc, {"op": "status"})
        assert alive and resp == {"ok": True, "sessions": {}}
        resp, _ = handle(svc, {"op": "open", "name": "d",
                               "policy": {"kind": "block"}})
        assert resp["ok"]
    finally:
        svc.close()


# -- the real thing: SIGKILL in a subprocess --------------------------------


@pytest.mark.fault_stress
def test_crash_harness_smoke(tmp_path):
    from repro.serve.crashtest import run_crash_test

    report = run_crash_test(str(tmp_path / "state"), kills=3, seed=7,
                            budget=60.0, sessions=2, workers=2)
    assert report["ok"], report["violations"]
    assert report["violations"] == []
    assert report["kills"] == 3
    assert report["acked_total"] > 0
    for audit in report["session_reports"].values():
        assert audit["delivered"] >= audit["acked"] - audit["unacked"]


_REQUEST_AFTER_KILL = """
import signal, sys
signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # as `python -m repro` sets it
from repro.serve.crashtest import DaemonClient
client = DaemonClient(sys.argv[1])
assert client.wait_ready() is not None
client.kill()
print(client.request({"op": "list"}))
"""


def test_request_to_a_killed_daemon_returns_none(tmp_path):
    """The harness writes to daemons it kills: under the default SIGPIPE
    action that `python -m repro` installs, the write must still come back
    as ``None`` instead of killing the harness (exit 141 in a shell)."""
    src = str(pathlib.Path(durable.__file__).resolve().parents[2])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, "-c", _REQUEST_AFTER_KILL, str(tmp_path)],
        capture_output=True, text=True, timeout=60, env=env)
    assert proc.returncode == 0, (proc.returncode, proc.stderr)
    assert proc.stdout.strip() == "None"
