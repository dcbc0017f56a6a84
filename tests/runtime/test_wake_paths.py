"""One test per way a parked operation gets woken.

A blocking submit that its own drain cannot complete installs a wake slot
(``runtime/host.py``: a raw lock, created held) and parks in
``EngineHost._wait_blocked``.  Everything that can resolve the operation —
a firing in either step tier, a closed or failed vertex, a timeout racing a
firing — has to wake that slot, a shed has to wake no one, and a wake-all
that resolves nothing has to leave it usable for the resolution that follows.
Each scenario runs on every backend.
"""

import threading
import time

import pytest

from repro.connectors import library
from repro.runtime import host
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import mkports
from repro.runtime.tasks import spawn
from repro.util.errors import (
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
)

pytestmark = pytest.mark.fault_stress

JOIN = 20.0


def merger(concurrency, **options):
    """Merger/2, a pure rendezvous: (connector, [out0, out1], inport)."""
    conn = library.connector("Merger", 2, concurrency=concurrency, **options)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    return conn, outs, ins[0]


def parked(conn, n=1, within=5.0):
    """Wait until ``n`` submitters are parked in the blocking wait."""
    deadline = time.monotonic() + within
    while conn.stats()["blocked"] < n:
        assert time.monotonic() < deadline, conn.stats()
        time.sleep(0.005)


def test_park_resolved_by_a_compiled_firing(concurrency="regions"):
    conn, outs, inp = merger(concurrency)
    assert conn.stats()["compiled_regions"] == 1
    h = spawn(inp.recv)
    parked(conn)
    outs[0].send("v")
    assert h.join(JOIN) == "v"
    assert conn.stats()["parks"] == 1 and conn.stats()["blocked"] == 0
    conn.close()


def test_park_resolved_by_an_interpreted_firing(concurrency="regions"):
    conn, outs, inp = merger(concurrency, compiled="off")
    assert conn.stats()["compiled_regions"] == 0
    h = spawn(outs[1].send, "v")
    parked(conn)
    assert inp.recv() == "v"
    h.join(JOIN)
    assert conn.stats()["parks"] == 1 and conn.stats()["blocked"] == 0
    conn.close()


def test_park_failed_by_close(concurrency="regions"):
    conn, outs, inp = merger(concurrency)

    def blocked_recv():
        with pytest.raises(PortClosedError):
            inp.recv()
        return True

    h = spawn(blocked_recv)
    parked(conn)
    conn.close()
    assert h.join(JOIN)


def test_park_failed_by_port_fail(concurrency="regions"):
    """``Port.fail`` delivers its PeerFailedError to the operation parked on
    that vertex, not a bare PortClosedError."""
    conn, outs, inp = merger(concurrency)

    def blocked_recv():
        with pytest.raises(PeerFailedError) as ei:
            inp.recv()
        return ei.value.task

    h = spawn(blocked_recv)
    parked(conn)
    inp.fail(PeerFailedError("consumer", ValueError("boom")))
    assert h.join(JOIN) == "consumer"
    conn.close()


def test_a_shed_wakes_no_parked_sender(concurrency="regions"):
    """``shed_newest`` over the bound: the new send is dead-lettered and
    returns without parking, and the parked sender ahead of it stays parked
    until a firing takes its value."""
    conn, outs, inp = merger(
        concurrency, overload=OverloadPolicy("shed_newest", max_pending=1))
    old = spawn(outs[0].send, "old")
    parked(conn)
    outs[0].send("new")
    assert [letter.value for letter in conn.dead_letters()] == ["new"]
    assert old.alive and conn.stats()["blocked"] == 1
    assert inp.recv() == "old"
    old.join(JOIN)
    assert not old.alive and old.exception is None
    assert conn.stats()["parks"] == 1 and conn.stats()["blocked"] == 0
    conn.close()


def test_timeout_racing_a_firing_delivers_the_value(concurrency="regions"):
    """The deadline passes, and the peer fires before the withdrawal gets
    there: ``_withdraw_expired`` answers ``False`` and the waiter returns
    the value — delivered once, nothing left behind."""
    conn, outs, inp = merger(concurrency)
    engine = conn.engine
    withdraw, answers = engine._withdraw_expired, []

    def fire_first(binding, op):
        if not answers:
            outs[0].send("just in time")
        answers.append(withdraw(binding, op))
        return answers[-1]

    engine._withdraw_expired = fire_first
    assert inp.recv(timeout=0.05) == "just in time"
    assert answers and not any(answers)
    engine._withdraw_expired = withdraw
    assert inp.try_recv() == (False, None)
    with pytest.raises(ProtocolTimeoutError):
        inp.recv(timeout=0.05)
    assert conn.stats()["blocked"] == 0
    conn.close()


def test_spurious_wakes_then_the_real_resolution(concurrency="regions"):
    """Wake-alls that resolve nothing — back to back, so the second finds
    the slot already released, and again after the waiter re-armed it —
    then the firing.  ``DETECTION_GRACE`` outlasts the test: unregistering
    leaves one party, and it is blocked."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(host, "DETECTION_GRACE", 60.0)
        conn, outs, inp = merger(concurrency)
        engine = conn.engine
        h = spawn(inp.recv)
        parked(conn)
        with engine._world_stopped():
            engine._wake_all_locked()
            engine._wake_all_locked()
        time.sleep(0.02)
        engine.register_party("a", name="a")
        engine.register_party("b", name="b")
        engine.unregister_party("b")
        time.sleep(0.02)
        engine.unregister_party("a")
        assert h.alive
        outs[0].send("real")
        assert h.join(JOIN) == "real"
        assert conn.stats()["parks"] == 1 and conn.stats()["blocked"] == 0
        conn.close()


def total(registry, family):
    fam = {f.name: f for f in registry.collect()}[family]
    return sum(value for _labels, value in fam.samples())


def test_rendezvous_with_a_racing_timeout_conserves(concurrency="regions",
                                                    rounds=10_000):
    """Merger/2 rendezvous with a 1 ms timeout on the receiving side:
    firings and withdrawals race all the way, and the books still say
    ``submitted == completed + withdrawn`` with every value delivered once,
    in order."""
    registry = MetricsRegistry()
    conn, outs, inp = merger(concurrency, metrics=registry)
    got, timeouts = [], 0

    def produce():
        for i in range(rounds):
            if i % 100 == 0:
                time.sleep(0.001)  # let the receiver's deadline come close
            outs[i % 2].send(i)

    producer = threading.Thread(target=produce)
    producer.start()
    while len(got) < rounds:
        try:
            got.append(inp.recv(timeout=0.001))
        except ProtocolTimeoutError:
            timeouts += 1
    producer.join(JOIN)
    assert got == list(range(rounds))
    submitted = total(registry, "repro_ops_submitted_total")
    completed = total(registry, "repro_ops_completed_total")
    withdrawn = total(registry, "repro_ops_withdrawn_total")
    assert timeouts and submitted == 2 * rounds + timeouts
    assert (completed, withdrawn) == (2 * rounds, timeouts)
    stats = conn.stats()
    assert stats["steps"] == rounds and stats["blocked"] == 0
    # Each step completes two operations, and at most one of the two was
    # completed by its own submission drain; a timed-out receive parked too.
    assert 0 < stats["parks"] <= rounds + timeouts
    conn.close()


@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_more_waiters_than_cores_under_a_short_switch_interval(concurrency):
    """Two producers and two consumers with racing 1 ms timeouts on one
    Merger/2, the interpreter switching threads every 10 µs: every wake,
    re-arm and withdrawal interleaves with every other.  A lost or doubled
    resolution breaks exactly-once delivery or the books."""
    import sys

    per_producer = 2_000
    registry = MetricsRegistry()
    conn, outs, inp = merger(concurrency, metrics=registry)
    got, timeouts, lock = [], [0], threading.Lock()

    def produce(k):
        for i in range(per_producer):
            outs[k].send((k, i))

    def consume():
        while True:
            try:
                value = inp.recv(timeout=0.001)
            except ProtocolTimeoutError:
                with lock:
                    timeouts[0] += 1
                    if len(got) == 2 * per_producer:
                        return
                continue
            with lock:
                got.append(value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        tasks = [spawn(produce, 0), spawn(produce, 1),
                 spawn(consume), spawn(consume)]
        for task in tasks:
            task.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(got) == [(k, i) for k in (0, 1) for i in range(per_producer)]
    assert total(registry, "repro_ops_submitted_total") == (
        total(registry, "repro_ops_completed_total")
        + total(registry, "repro_ops_withdrawn_total"))
    assert total(registry, "repro_ops_withdrawn_total") == timeouts[0]
    assert conn.stats()["blocked"] == 0
    conn.close()


@pytest.mark.parametrize("concurrency", ["global"])
@pytest.mark.parametrize("scenario", [
    test_park_resolved_by_a_compiled_firing,
    test_park_resolved_by_an_interpreted_firing,
    test_park_failed_by_close,
    test_park_failed_by_port_fail,
    test_a_shed_wakes_no_parked_sender,
    test_timeout_racing_a_firing_delivers_the_value,
    test_spurious_wakes_then_the_real_resolution,
    test_rendezvous_with_a_racing_timeout_conserves,
], ids=lambda f: f.__name__)
def test_wake_scenarios_on_every_backend(scenario, concurrency):
    """Each scenario again with every region handed one lock.  One extra
    test rather than a parameter on each, so the scenarios keep their ids."""
    scenario(concurrency)
