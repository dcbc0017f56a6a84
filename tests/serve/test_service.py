"""CoordinatorService: the serve metric families, admission accounting,
restart bookkeeping, and the one maintenance thread (periodic snapshots
and the progress-based stall detector)."""

import threading
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


def _maintenance_threads():
    return [t for t in threading.enumerate() if t.name == "serve-maintenance"]


@pytest.mark.fault_stress
def test_stall_probe_waits_for_an_admin_op_in_flight():
    """While an admin op holds the session's lock the probe leaves the
    session alone, however long the op takes; once the lock is free the
    same maintenance thread quarantines the wedge within a few ticks."""
    before = len(_maintenance_threads())
    svc = CoordinatorService(_controller(), stall_after=0.2,
                             probe_interval=0.05).start()
    try:
        wedged = svc.open_session("wedged", service_time=0.0)
        wedged._gate.clear()  # workers stop for good, as in a real wedge
        time.sleep(0.1)
        assert svc.submit("wedged", "w0", timeout=2.0) == "ok"
        assert wedged.backlog() > 0
        held, release = threading.Event(), threading.Event()

        def admin_op():
            with wedged.admin:
                held.set()
                release.wait(10.0)

        holder = threading.Thread(target=admin_op)
        holder.start()
        assert held.wait(5.0)
        end = time.monotonic() + 5 * svc.stall_after
        while time.monotonic() < end:
            assert wedged.state is SessionState.RUNNING
            time.sleep(0.02)
        release.set()
        holder.join(5.0)
        deadline = time.monotonic() + svc.stall_after + 40 * svc.probe_interval
        while wedged.state is not SessionState.QUARANTINED:
            assert time.monotonic() < deadline, wedged.state
            time.sleep(0.02)
        assert isinstance(wedged.quarantine_cause, StallError)
        assert len(_maintenance_threads()) == before + 1
    finally:
        svc.close()


def test_one_maintenance_thread_tends_every_session(tmp_path):
    """Stall detection and periodic snapshots for three durable sessions
    run on one thread, and every session gains a snapshot generation."""
    before = len(_maintenance_threads())
    svc = CoordinatorService(_controller(), stall_after=5.0,
                             state_dir=tmp_path, auto_checkpoint=0.05)
    try:
        sessions = [svc.open_session(f"d{i}") for i in range(3)]
        assert len(_maintenance_threads()) == before + 1
        deadline = time.monotonic() + 15.0
        for s in sessions:
            # open() committed generation 1; the thread must add more
            while max(s.durability.store.generations()) < 2:
                assert time.monotonic() < deadline, s.name
                time.sleep(0.02)
        assert len(_maintenance_threads()) == before + 1
    finally:
        svc.close()
    assert len(_maintenance_threads()) == before


@pytest.mark.fault_stress
def test_a_session_that_cannot_park_holds_up_no_other(tmp_path):
    """A durable session with a submit wedged in ``send`` can never park.
    The maintenance thread gives up on its periodic snapshot after
    PARK_TIMEOUT instead of ADMIN_TIMEOUT, so a healthy session keeps being
    snapshotted period after period.  The failed attempts do not reset the
    stall clock either: the wedge is quarantined on schedule."""
    svc = CoordinatorService(_controller(), stall_after=1.0,
                             probe_interval=0.05, state_dir=tmp_path,
                             auto_checkpoint=0.1)
    try:
        healthy = svc.open_session("healthy")
        stuck = svc.open_session("stuck")
        with stuck._inflight_lock:
            stuck._inflight += 1  # what a submit blocked in send looks like
        generations = healthy.durability.store.generations
        start, first = time.monotonic(), max(generations())
        while stuck.state is not SessionState.QUARANTINED:
            assert time.monotonic() - start < svc.stall_after + 1.5
            time.sleep(0.02)
        with stuck._inflight_lock:
            stuck._inflight -= 1  # the blocked submit gives up
        assert isinstance(stuck.quarantine_cause, StallError)
        # ~0.1 s period plus at most one 0.2 s give-up on the wedge per
        # period: at least 3 generations in the stall_after window (none
        # at all if each attempt on the wedge held the thread for 10 s)
        assert max(generations()) - first >= 3
        assert healthy.state is SessionState.RUNNING
    finally:
        svc.close()
