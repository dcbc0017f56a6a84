"""CoordinatorService: sharding keyed off the session name, the serve
metric families, admission accounting, restart bookkeeping, and the
progress-based stall detector."""

import time

import pytest

from repro.runtime.errors import RuntimeProtocolError, StallError
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.overload import OverloadPolicy
from repro.serve.admission import (
    AdmissionController,
    AdmissionError,
    TenantSpec,
)
from repro.serve.service import CoordinatorService
from repro.serve.session import SessionState

POLICY = OverloadPolicy("shed_newest", max_pending=16,
                        dead_letter_capacity=10_000)


def _controller(max_sessions=8):
    return AdmissionController(
        default=TenantSpec("default", max_sessions=max_sessions,
                           overload=POLICY)
    )


def _samples(registry, family):
    for fam in registry.collect():
        if fam.name == family:
            return dict(fam.samples())
    return {}


def test_hosts_many_sessions_and_routes_submits():
    with CoordinatorService(_controller()) as svc:
        for i in range(6):
            svc.open_session(f"s{i}", service_time=0.0)
        for i in range(6):
            for j in range(5):
                assert svc.submit(f"s{i}", f"s{i}:{j}", timeout=5.0) == "ok"
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if all(len(svc.session(f"s{i}").delivered) == 5
                   for i in range(6)):
                break
            time.sleep(0.01)
        status = svc.status()
    assert len(status) == 6
    assert all(row["delivered"] == 5 for row in status.values())


def test_shard_is_keyed_off_the_session_name():
    """A session's shard is a digest of its name alone: a rolling restart
    that changes the worker count leaves it where it was, and sessions
    spread across more than one shard."""
    with CoordinatorService(_controller(), shards=4) as svc:
        for i in range(8):
            svc.open_session(f"s{i}", workers=3)
        shards = {name: row["shard"] for name, row in svc.status().items()}
        svc.rolling_restart("s0", new_workers=2)
        after = svc.status()
        assert after["s0"]["workers"] == 2
        assert {name: row["shard"] for name, row in after.items()} == shards
        assert svc._lookup("s0")[1].index == shards["s0"]
        assert "s0" in svc._shards[shards["s0"]].sessions
    assert len(set(shards.values())) > 1


def test_admission_metrics_and_duplicate_names():
    ctrl = AdmissionController(tenants=(
        TenantSpec("acme", max_sessions=1, overload=POLICY),
    ))
    svc = CoordinatorService(ctrl)
    try:
        svc.open_session("a", tenant="acme")
        with pytest.raises(AdmissionError):
            svc.open_session("b", tenant="acme")  # quota
        with pytest.raises(AdmissionError):
            svc.open_session("c", tenant="ghost")  # closed tenancy
        with pytest.raises(RuntimeProtocolError):
            svc.open_session("a", tenant="acme")  # duplicate name
        admissions = _samples(svc.metrics, "repro_serve_admissions_total")
        assert admissions[("acme", "admitted")] == 1.0
        assert admissions[("acme", "rejected")] == 1.0
        assert admissions[("ghost", "rejected")] == 1.0
    finally:
        svc.close()


def test_closed_sessions_free_tenant_quota():
    ctrl = AdmissionController(tenants=(
        TenantSpec("acme", max_sessions=1, overload=POLICY),
    ))
    with CoordinatorService(ctrl) as svc:
        svc.open_session("a", tenant="acme")
        svc.close_session("a")
        svc.open_session("b", tenant="acme")  # quota freed by the close


def test_sessions_gauge_and_restart_counter():
    registry = MetricsRegistry()
    svc = CoordinatorService(_controller(), registry)
    try:
        svc.open_session("a", service_time=0.0)
        svc.open_session("b", service_time=0.0)
        assert _samples(registry, "repro_serve_sessions") == {
            ("default", "running"): 2.0
        }
        svc.rolling_restart("a")
        svc.rolling_restart("a")
        assert _samples(registry, "repro_serve_restarts_total") == {
            ("a",): 2.0
        }
        assert svc.session("a").restarts == 2
        svc.close_session("b")
        gauge = _samples(registry, "repro_serve_sessions")
        assert gauge[("default", "running")] == 1.0
        assert gauge[("default", "closed")] == 1.0
    finally:
        svc.close()


def test_quarantine_via_service():
    with CoordinatorService(_controller()) as svc:
        svc.open_session("sick")
        cause = RuntimeError("wedged")
        svc.quarantine("sick", cause)
        session = svc.session("sick")
        assert session.state is SessionState.QUARANTINED
        assert session.quarantine_cause is cause
        assert svc.status()["sick"]["state"] == "quarantined"


def test_unknown_session_is_typed():
    with CoordinatorService(_controller()) as svc:
        with pytest.raises(RuntimeProtocolError, match="unknown session"):
            svc.submit("ghost", 1)


@pytest.mark.fault_stress
def test_stall_detector_quarantines_wedged_session():
    """A session whose workers stop consuming while submits keep landing
    makes no progress with a positive backlog -> the maintenance pool
    quarantines it with a StallError; healthy sessions are untouched."""
    svc = CoordinatorService(_controller(), stall_after=0.2,
                             probe_interval=0.05)
    svc.start()
    try:
        svc.open_session("healthy", service_time=0.0)
        wedged = svc.open_session("wedged", service_time=0.0)
        # wedge the farm: park the workers for good (bypassing the
        # lifecycle, as a real wedge would)
        wedged._gate.clear()
        time.sleep(0.1)
        from repro.serve.session import SessionStateError

        for j in range(4):
            try:
                # a wedged farm may be quarantined mid-loop (that is the
                # point); later submits then see the typed refusal
                svc.submit("wedged", f"w{j}", timeout=0.3)
            except SessionStateError:
                pass
            svc.submit("healthy", f"h{j}", timeout=2.0)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if wedged.state is SessionState.QUARANTINED:
                break
            time.sleep(0.05)
        assert wedged.state is SessionState.QUARANTINED
        assert isinstance(wedged.quarantine_cause, StallError)
        assert svc.session("healthy").state is SessionState.RUNNING
    finally:
        svc.close()
