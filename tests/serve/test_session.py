"""Session lifecycle: state-machine legality, quiescent rolling restarts
(exactly-once across generations, including shrink), and teardown."""

import threading
import time

import pytest

from repro.connectors import library
from repro.fuzz.oracle import conservation_violations
from repro.runtime.errors import RuntimeProtocolError
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import Inport, Outport
from repro.serve.session import (
    FarmSession,
    Session,
    SessionState,
    SessionStateError,
)

POLICY = OverloadPolicy("shed_newest", max_pending=16,
                        dead_letter_capacity=10_000)


def _fifo_factory():
    conn = library.connector("FifoChain", 2)
    conn.connect([Outport("x0")], [Inport("x2")])
    return conn


# -- the generic state machine ----------------------------------------------

def test_lifecycle_happy_path():
    s = Session("s", factory=_fifo_factory)
    assert s.state is SessionState.ADMITTED
    s.open()
    assert s.state is SessionState.RUNNING
    cp = s.checkpoint()
    assert s.state is SessionState.CHECKPOINTED
    assert s.checkpoints == [cp]
    s.reopen()
    assert s.state is SessionState.RUNNING
    assert s.restarts == 1
    s.close()
    assert s.state is SessionState.CLOSED


def test_illegal_transitions_raise_typed_error():
    s = Session("s", factory=_fifo_factory)
    with pytest.raises(SessionStateError) as ei:
        s.checkpoint()  # ADMITTED cannot drain
    assert ei.value.session == "s"
    assert ei.value.state is SessionState.ADMITTED
    s.open()
    with pytest.raises(SessionStateError):
        s.reopen()  # RUNNING cannot restore (no checkpoint taken)
    s.close()
    with pytest.raises(SessionStateError):
        s.open()  # CLOSED is terminal
    s.close()  # ...but close itself is idempotent (teardown calls race)
    assert s.state is SessionState.CLOSED


def test_quarantine_is_terminal_except_close():
    s = Session("s", factory=_fifo_factory).open()
    cause = RuntimeError("wedged")
    s.quarantine(cause)
    assert s.state is SessionState.QUARANTINED
    assert s.quarantine_cause is cause
    with pytest.raises(SessionStateError):
        s.open()
    s.close()  # always legal
    assert s.state is SessionState.CLOSED


def test_failed_checkpoint_returns_to_running():
    """A non-quiescent engine fails the snapshot with CheckpointError and
    the lifecycle lands back in RUNNING — never wedged in DRAINING."""
    from repro.util.errors import CheckpointError

    s = Session("s", factory=_fifo_factory).open()
    # a recv with nothing buffered stays pending -> not quiescent
    op = s.connector.engine.post_recv("x2")
    assert not op.done
    with pytest.raises(CheckpointError):
        s.checkpoint()
    assert s.state is SessionState.RUNNING
    s.close()


# -- the farm shape ----------------------------------------------------------

def _drain_to(session, n, timeout=5.0):
    deadline = time.monotonic() + timeout
    while len(session.delivered) < n and time.monotonic() < deadline:
        time.sleep(0.01)
    return len(session.delivered)


def test_farm_delivers_and_accounts():
    s = FarmSession("farm", workers=2, policy=POLICY).open()
    try:
        for j in range(20):
            assert s.submit(f"v{j}", timeout=5.0) == "ok"
        assert _drain_to(s, 20) == 20
    finally:
        s.close()
    assert sorted(s.delivered) == sorted(f"v{j}" for j in range(20))
    assert conservation_violations(s.registry) == []


def test_rolling_restart_is_exactly_once_under_load():
    s = FarmSession("roll", workers=2, policy=POLICY,
                    service_time=0.002).open()
    stop = threading.Event()
    admitted: list = []

    def pump():
        j = 0
        while not stop.is_set():
            if s.submit(f"p{j}", timeout=5.0) == "ok":
                admitted.append(f"p{j}")
            j += 1

    t = threading.Thread(target=pump)
    t.start()
    try:
        time.sleep(0.1)
        cp = s.rolling_restart()
        assert cp is s.checkpoints[-1]
        assert s.restarts == 1
        assert s.state is SessionState.RUNNING
        time.sleep(0.1)
    finally:
        stop.set()
        t.join(10.0)
        s.close()
    landed = list(s.delivered) + [d.value for d in s.dead_letters()]
    assert len(landed) == len(set(landed)), "a value was duplicated"
    assert set(admitted) <= set(landed), "an admitted value vanished"
    assert conservation_violations(s.registry) == []


def test_rolling_restart_shrinks_via_leave():
    s = FarmSession("shrink", workers=3, policy=POLICY).open()
    try:
        for j in range(12):
            assert s.submit(f"a{j}", timeout=5.0) == "ok"
        s.rolling_restart(new_workers=2)
        assert s.workers == 2
        # the rebuilt farm serves at the reduced arity
        for j in range(12):
            assert s.submit(f"b{j}", timeout=5.0) == "ok"
        _drain_to(s, 24)
    finally:
        s.close()
    landed = (list(s.delivered) + [d.value for d in s.dead_letters()]
              + list(s.dropped))
    assert len(landed) == len(set(landed))
    expected = {f"a{j}" for j in range(12)} | {f"b{j}" for j in range(12)}
    assert expected <= set(landed)
    assert conservation_violations(s.registry) == []


def test_rolling_restart_rejects_growth():
    s = FarmSession("grow", workers=2, policy=POLICY).open()
    try:
        with pytest.raises(RuntimeProtocolError):
            s.rolling_restart(new_workers=3)
        assert s.state is SessionState.RUNNING  # aborted cleanly
    finally:
        s.close()


def test_submit_refused_after_close_and_quarantine():
    s = FarmSession("done", workers=1, policy=POLICY).open()
    s.close()
    with pytest.raises(SessionStateError):
        s.submit("late", timeout=0.1)

    q = FarmSession("sick", workers=1, policy=POLICY).open()
    q.quarantine(RuntimeError("wedged"))
    with pytest.raises(SessionStateError):
        q.submit("late", timeout=0.1)
    q.close()


def test_parked_checkpoint_is_quiescent():
    """rolling_restart's parking protocol converges to a checkpointable
    engine even while workers were actively polling."""
    s = FarmSession("park", workers=2, policy=POLICY,
                    service_time=0.001).open()
    try:
        for j in range(8):
            s.submit(f"v{j}", timeout=5.0)
        for _ in range(3):  # repeated restarts back to back
            s.rolling_restart()
        assert s.restarts == 3
    finally:
        s.close()
    assert conservation_violations(s.registry) == []
