"""Durable FarmSession + CoordinatorService: crash-consistent cold starts.

These are the in-process halves of the kill-9 story (docs/DURABILITY.md):
a ``quarantine()`` stands in for the crash — no drain, no final snapshot,
the journal left exactly as the write-ahead hooks put it — and a second
service incarnation over the same ``state_dir`` must recover the session
with its exactly-once delivery book intact.  The subprocess harness with
real ``SIGKILL`` is ``python -m repro serve --crash-test`` (exercised by
the smoke test at the bottom and by CI's crash-recovery-smoke job).
"""

import json
import time

import pytest

from repro.runtime.errors import RuntimeProtocolError
from repro.runtime.overload import OverloadPolicy
from repro.serve.daemon import handle
from repro.serve.service import CoordinatorService
from repro.serve.session import FarmSession

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
    gone (docs/DECISIONS.md row 13), checkpoints were byte-compatible
    across backends and serve always partitions, so recovery ignores the
    two keys and rebuilds on the default engine with the book intact."""
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
        resp, alive = handle(svc, {"op": "shutdown"})
        assert resp["ok"] and not alive
    finally:
        svc.close()
    assert json.dumps(resp)  # every response is JSON-serializable


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
