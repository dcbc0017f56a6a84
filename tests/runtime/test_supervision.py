"""Supervision: crash propagation, party registration, and deadlock
detection against the registered parties — the engine's only detector."""

import time

import pytest

from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.ports import mkports
from repro.runtime.tasks import SupervisedTaskGroup
from repro.util.errors import DeadlockError, PeerFailedError

pytestmark = pytest.mark.fault_stress


def pipe(**options):
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P", **options)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    return conn, outs[0], ins[0]


def test_supervised_success_path():
    conn, out, inp = pipe()
    got = []
    with SupervisedTaskGroup(join_timeout=30) as g:
        g.spawn(lambda: [out.send(i) for i in range(20)], ports=[out], name="producer")
        g.spawn(lambda: [got.append(inp.recv()) for _ in range(20)], ports=[inp], name="consumer")
    conn.close()
    assert got == list(range(20))


def test_crash_propagates_as_peer_failed_error():
    """A crashed producer must fail its blocked consumer fast, naming the
    dead task and carrying the original exception."""
    conn, out, inp = pipe()

    def producer():
        out.send(0)
        raise ValueError("producer exploded")

    def consumer():
        assert inp.recv() == 0
        inp.recv()  # producer is dead: this must not hang

    g = SupervisedTaskGroup(join_timeout=30)
    hp = g.spawn(producer, ports=[out], name="producer")
    hc = g.spawn(consumer, ports=[inp], name="consumer")
    hp.thread.join(10)
    hc.thread.join(10)
    assert not hp.alive and not hc.alive
    assert isinstance(hp.exception, ValueError)
    assert isinstance(hc.exception, PeerFailedError)
    assert hc.exception.task == "producer"
    assert isinstance(hc.exception.cause, ValueError)
    conn.close()


def test_crash_detected_within_bound():
    """Crash propagation must be fail-fast (sub-second), not a wall-clock
    timeout."""
    conn, out, inp = pipe()

    def producer():
        raise RuntimeError("dead on arrival")

    def consumer():
        inp.recv()

    g = SupervisedTaskGroup()
    t0 = time.monotonic()
    g.spawn(producer, ports=[out], name="producer")
    hc = g.spawn(consumer, ports=[inp], name="consumer")
    hc.thread.join(10)
    assert not hc.alive
    assert time.monotonic() - t0 < 5.0
    assert isinstance(hc.exception, PeerFailedError)
    conn.close()


def test_cross_wait_deadlock_detected_without_expected_parties():
    """The classic 2-task cross-wait: each task receives what only the other
    could send.  Registration-based detection must catch it with no party
    count given up front."""
    conn = compile_source(
        "P(a,c;b,d) = Fifo1(a;b) mult Fifo1(c;d)"
    ).instantiate_connector("P")
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)

    def t1():
        ins[1].recv()  # waits on d: only t2 sends c
        outs[0].send("x")

    def t2():
        ins[0].recv()  # waits on b: only t1 sends a
        outs[1].send("y")

    g = SupervisedTaskGroup()
    h1 = g.spawn(t1, ports=[outs[0], ins[1]], name="t1")
    h2 = g.spawn(t2, ports=[outs[1], ins[0]], name="t2")
    h1.thread.join(10)
    h2.thread.join(10)
    assert not h1.alive and not h2.alive
    assert isinstance(h1.exception, DeadlockError)
    assert isinstance(h2.exception, DeadlockError)
    conn.close()


def test_deadlock_detected_after_party_exits():
    """No false negative after a party exits: a consumer waiting for more
    data than the (normally exited) producer ever sent is detected."""
    conn, out, inp = pipe()

    def producer():
        for i in range(3):
            out.send(i)

    def consumer():
        return [inp.recv() for _ in range(5)]  # two more than exist

    g = SupervisedTaskGroup()
    hp = g.spawn(producer, ports=[out], name="producer")
    hc = g.spawn(consumer, ports=[inp], name="consumer")
    hp.thread.join(10)
    hc.thread.join(10)
    assert not hc.alive
    assert hp.exception is None
    assert isinstance(hc.exception, DeadlockError)
    conn.close()


def test_no_false_positive_while_producer_is_slow():
    """A slow-but-live registered party must not be declared deadlocked."""
    conn, out, inp = pipe()

    def producer():
        for i in range(3):
            time.sleep(0.12)  # longer than the detection grace
            out.send(i)

    def consumer():
        return [inp.recv() for _ in range(3)]

    with SupervisedTaskGroup(join_timeout=30) as g:
        g.spawn(producer, ports=[out], name="producer")
        hc = g.spawn(consumer, ports=[inp], name="consumer")
    conn.close()
    assert hc.result == [0, 1, 2]


def test_deadlock_diagnostic_names_parties_and_vertices():
    conn, out, inp = pipe()

    def consumer():
        inp.recv()

    g = SupervisedTaskGroup()
    hc = g.spawn(consumer, ports=[inp], name="lonely-consumer")
    hc.thread.join(10)
    assert isinstance(hc.exception, DeadlockError)
    msg = str(hc.exception)
    assert "lonely-consumer" in msg
    assert "pending recvs" in msg
    assert hc.exception.diagnostic
    conn.close()


def test_body_exception_releases_blocked_tasks():
    """If the orchestrating body raises, supervised tasks blocked on the
    protocol are failed fast and the body's exception propagates."""
    conn, out, inp = pipe()
    holder = {}
    t0 = time.monotonic()
    with pytest.raises(KeyError, match="orchestration bug"):
        with SupervisedTaskGroup() as g:
            holder["h"] = g.spawn(lambda: inp.recv(), ports=[inp], name="consumer")
            raise KeyError("orchestration bug")
    assert time.monotonic() - t0 < 5.0
    assert not holder["h"].alive
    assert isinstance(holder["h"].exception, PeerFailedError)
    conn.close()


def test_supervision_with_barrier_wrong_usage():
    """Barrier(2) with only one sender and one receiver: detected from the
    registered parties alone."""
    conn = library.connector("Barrier", 2)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)

    g = SupervisedTaskGroup()
    h1 = g.spawn(lambda: outs[0].send("x"), ports=[outs[0]], name="send-only")
    h2 = g.spawn(lambda: ins[0].recv(), ports=[ins[0]], name="recv-only")
    h1.thread.join(10)
    h2.thread.join(10)
    assert not h1.alive and not h2.alive
    assert isinstance(h1.exception, DeadlockError)
    assert isinstance(h2.exception, DeadlockError)
    conn.close()


@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_departed_party_leaves_the_detector(concurrency):
    """A supervised party that departs through ``RuntimeConnector.leave``
    takes its registration with it: the two survivors, both receiving on
    the shrunk Barrier(2) with nobody left to send, are detected against
    themselves alone — a phantom third party would leave them to time
    out instead."""
    conn = library.connector(
        "Barrier", 3, default_timeout=10, concurrency=concurrency,
        use_partitioning=True,
    )
    outs, ins = mkports(3, 3)
    conn.connect(outs, ins)

    def departs():
        raise ValueError("party 0 gives up")

    # The survivors' own deadlock must not reparametrize them away too.
    g = SupervisedTaskGroup(on_departure="reparametrize")
    stay = SupervisedTaskGroup()
    survivors = [
        stay.spawn(ins[k].recv, ports=[outs[k], ins[k]], name=f"survivor{k}")
        for k in (1, 2)
    ]
    gone = g.spawn(departs, ports=[outs[0], ins[0]], name="departs")
    gone.thread.join(10)
    for h in survivors:
        h.thread.join(10)
    assert gone.departed and len(g.departures) == 1
    assert len(conn.tail_vertices) == 2
    for h in survivors:
        assert not h.alive and isinstance(h.exception, DeadlockError)
    conn.close()
