"""Failure injection: closing mid-protocol, deadlock detection, misuse."""

import time

import pytest

from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime import host
from repro.runtime.host import _WAIT_TICK
from repro.runtime.ports import mkports
from repro.runtime.tasks import SupervisedTaskGroup, spawn
from repro.util.errors import (
    DeadlockError,
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
)

pytestmark = pytest.mark.fault_stress


def _register(conn, n):
    """Register ``n`` parties by hand, as supervised tasks' ports would."""
    for k in range(n):
        conn.engine.register_party(f"party{k}")


def test_close_connector_fails_all_blocked_parties(concurrency="regions"):
    conn = library.connector("Barrier", 2, concurrency=concurrency)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)

    def blocked_send():
        with pytest.raises(PortClosedError):
            outs[0].send("x")
        return True

    def blocked_recv():
        with pytest.raises(PortClosedError):
            ins[1].recv()
        return True

    h1, h2 = spawn(blocked_send), spawn(blocked_recv)
    time.sleep(0.05)
    conn.close()
    assert h1.join(5) and h2.join(5)


def test_close_single_vertex_blocks_only_that_port(concurrency="regions"):
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", concurrency=concurrency
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    outs[0].send(1)
    outs[0].close()
    with pytest.raises(PortClosedError):
        outs[0].send(2)
    # the buffered message is still deliverable
    assert ins[0].recv() == 1
    conn.close()


def test_send_after_connector_close():
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    conn.close()
    with pytest.raises(PortClosedError):
        outs[0].send(1)


def test_deadlock_detection_two_receivers(concurrency="regions"):
    """Two parties both receiving on an empty fifo = deadlock (when both
    are registered)."""
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", concurrency=concurrency
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    _register(conn, 2)

    def recv_expect_deadlock():
        with pytest.raises(DeadlockError):
            ins[0].recv()
        return True

    def second_recv_expect_deadlock():
        # fifo1 is empty and the only other party also receives -> stuck
        with pytest.raises(DeadlockError):
            ins[0].recv()
        return True

    h1 = spawn(recv_expect_deadlock)
    time.sleep(0.02)
    h2 = spawn(second_recv_expect_deadlock)
    assert h1.join(10) and h2.join(10)
    conn.close()


def test_no_false_deadlock_when_progress_possible():
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    _register(conn, 2)

    def producer():
        for i in range(50):
            outs[0].send(i)

    def consumer():
        return [ins[0].recv() for _ in range(50)]

    h1, h2 = spawn(producer), spawn(consumer)
    h1.join(10)
    assert h2.join(10) == list(range(50))
    conn.close()


def test_deadlock_in_barrier_wrong_usage(concurrency="regions"):
    """A Barrier(2) where only one pair participates deadlocks."""
    conn = library.connector("Barrier", 2, concurrency=concurrency)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    _register(conn, 2)

    def send_only():
        with pytest.raises(DeadlockError):
            outs[0].send("x")
        return True

    def recv_only():
        with pytest.raises(DeadlockError):
            ins[0].recv()
        return True

    h1 = spawn(send_only)
    h2 = spawn(recv_only)
    assert h1.join(10) and h2.join(10)
    conn.close()


def test_no_spurious_deadlock_from_nonblocking_probes(concurrency="regions"):
    """Detection counts *blocked parties*, not queued ops: probes from a
    non-blocking (or about-to-block) submitter transiently inflate a vertex
    queue past the registered party count while only one party is truly
    blocked — that must never be declared a deadlock."""
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", concurrency=concurrency
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    _register(conn, 2)
    outs[0].send(0)  # fifo now full

    def blocked_sender():
        outs[0].send(1)  # parks until the fifo drains
        return True

    h = spawn(blocked_sender)
    time.sleep(0.05)  # exactly one blocked party from here on
    for _ in range(300):
        # each probe queues a second op at `a` (queue length 2 = the
        # party count) before withdrawing it; only blocked-party
        # counting keeps this below the detection threshold
        assert not outs[0].try_send(2)
    assert ins[0].recv() == 0  # drain: unblocks the parked sender
    assert h.join(10) is True
    assert ins[0].recv() == 1
    conn.close()


@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_zero_expected_parties_is_not_a_deadlock(concurrency):
    """Nobody registered (nor left registered once the last party
    departs) means nobody to wait for — it must not read as "all 0 parties
    blocked": a lone blocking recv waits out its timeout on every
    backend."""
    conn = library.connector(
        "FifoChain", 2, concurrency=concurrency,
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    try:
        t0 = time.monotonic()
        with pytest.raises(ProtocolTimeoutError):
            ins[0].recv(timeout=0.3)
        assert time.monotonic() - t0 >= 0.3
        outs[0].send("still alive")
        assert ins[0].recv(timeout=10) == "still alive"
    finally:
        conn.close()


def test_deadlock_error_carries_diagnostic_dump(concurrency="regions"):
    conn = library.connector("Barrier", 2, concurrency=concurrency)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    _register(conn, 2)

    def send_only():
        try:
            outs[0].send("x")
        except DeadlockError as exc:
            return exc

    def recv_only():
        with pytest.raises(DeadlockError):
            ins[0].recv()

    h = spawn(send_only)
    h2 = spawn(recv_only)
    err = h.join(10)
    h2.join(10)
    assert isinstance(err, DeadlockError)
    assert err.diagnostic
    assert "pending sends" in str(err)
    assert "region states" in str(err)
    conn.close()


BACKENDS = ["regions", "global"]


@pytest.mark.parametrize("concurrency", BACKENDS[1:])
@pytest.mark.parametrize("scenario", [
    test_close_connector_fails_all_blocked_parties,
    test_close_single_vertex_blocks_only_that_port,
    test_deadlock_detection_two_receivers,
    test_deadlock_in_barrier_wrong_usage,
    test_no_spurious_deadlock_from_nonblocking_probes,
    test_deadlock_error_carries_diagnostic_dump,
], ids=lambda f: f.__name__)
def test_failure_scenarios_on_every_backend(scenario, concurrency):
    """The detector, its error and the closed-vertex books
    (``runtime/host.py``) again with every region handed one lock.  One
    extra test rather than a parameter on each, so the scenarios keep their
    ids."""
    scenario(concurrency)


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_detection_grace_is_waited_out_then_delivered(concurrency,
                                                      monkeypatch):
    """Registered parties: a sighting must stand for ``DETECTION_GRACE``
    before it is believed, and is then delivered within a few ticks."""
    grace = 0.3
    monkeypatch.setattr(host, "DETECTION_GRACE", grace)
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", concurrency=concurrency
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    g = SupervisedTaskGroup()
    t0 = time.monotonic()
    h = g.spawn(ins[0].recv, ports=[ins[0]], name="lone-consumer")
    h.thread.join(10)
    elapsed = time.monotonic() - t0
    assert not h.alive and isinstance(h.exception, DeadlockError)
    assert grace <= elapsed < grace + 2.0
    conn.close()


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_stuck_parties_blame_the_crashed_peer(concurrency):
    """A supervised crash closes the dead task's vertex with a
    PeerFailedError; the parties later found stuck get that blame — task
    name and cause — not a bare DeadlockError."""
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", concurrency=concurrency
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)

    def producer():
        raise ValueError("producer exploded")

    g = SupervisedTaskGroup()
    g.spawn(producer, ports=[outs[0]], name="producer")
    h = g.spawn(ins[0].recv, ports=[ins[0]], name="consumer")
    h.thread.join(10)
    assert not h.alive and isinstance(h.exception, PeerFailedError)
    assert h.exception.task == "producer"
    assert isinstance(h.exception.cause, ValueError)
    conn.close()


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_the_last_party_to_block_detects_on_entry(concurrency, monkeypatch):
    """Registered parties, no grace: the waiter that completes the blocked
    set consults the detector before it parks, not a tick later."""
    monkeypatch.setattr(host, "DETECTION_GRACE", 0.0)
    conn = library.connector("Merger", 2, concurrency=concurrency)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    _register(conn, 2)

    def first():
        with pytest.raises(DeadlockError):
            ins[0].recv()
        return True

    h = spawn(first)
    deadline = time.monotonic() + 5
    while conn.stats()["blocked"] < 1 and time.monotonic() < deadline:
        time.sleep(0.005)
    t0 = time.monotonic()
    with pytest.raises(DeadlockError):
        ins[0].recv()
    assert time.monotonic() - t0 < _WAIT_TICK / 2
    assert h.join(10)
    conn.close()


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_progress_never_freezes_the_regions(concurrency):
    """Two registered parties in a 2 000-step rendezvous: every step parks
    one of them — and while the other is being woken both count as blocked
    — yet as long as operations keep resolving nobody consults the
    detector, so nobody stops the world."""
    steps = 2_000
    conn = library.connector("Merger", 2, concurrency=concurrency)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    engine = conn.engine
    engine.register_party("producer", name="producer")
    engine.register_party("consumer", name="consumer")
    freeze, calls = engine._freeze, []

    def counted():
        calls.append("freeze")
        return freeze()

    engine._freeze = counted

    def produce():
        for i in range(steps):
            outs[i % 2].send(i)

    h = spawn(produce)
    got = [ins[0].recv(timeout=10) for _ in range(steps)]
    h.join(10)
    engine._freeze = freeze
    assert got == list(range(steps))
    assert conn.stats()["parks"] >= steps // 2
    assert calls == []
    conn.close()


def test_connector_context_manager():
    with compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P") as conn:
        outs, ins = mkports(1, 1)
        conn.connect(outs, ins)
        outs[0].send(1)
        assert ins[0].recv() == 1
    with pytest.raises(PortClosedError):
        outs[0].send(2)


def test_double_connect_rejected():
    from repro.util.errors import RuntimeProtocolError

    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    with pytest.raises(RuntimeProtocolError, match="already connected"):
        conn.connect(*mkports(1, 1))
    conn.close()


def test_signature_overlap_rejected():
    from repro.runtime.connector import RuntimeConnector
    from repro.connectors.primitives import build_automaton
    from repro.connectors.graph import Arc
    from repro.util.errors import RuntimeProtocolError

    auto = build_automaton(Arc("sync", ("x",), ("y",)), "q")
    with pytest.raises(RuntimeProtocolError, match="both sides"):
        RuntimeConnector([auto], ["x"], ["x"])
