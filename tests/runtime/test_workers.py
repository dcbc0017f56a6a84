"""Behavioural coverage for the multiprocess ``workers`` engine backend.

Every contract the thread backends honour must survive the move to
per-region worker processes (:mod:`repro.runtime.workers`): blocking and
non-blocking port operations, posted (asynchronous) operations, timeout
withdrawal, deadlock detection, overload shedding with dead letters,
checkpoint/restore, drain, and party departure.  On top of that the
backend adds a failure mode the thread tiers cannot have — a worker
process dying — which must surface as :class:`PeerFailedError` on the
ops it strands, both via direct ``kill_worker`` and via the seeded
``worker_kill`` fault kind.
"""

import time

import pytest

from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import mkports
from repro.runtime.tasks import TaskGroup, spawn
from repro.util.errors import (
    DeadlockError,
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
)

OP_TIMEOUT = 15.0
JOIN_TIMEOUT = 60.0
pytestmark = pytest.mark.fault_stress


def workers_connector(name, n, **options):
    options.setdefault("default_timeout", OP_TIMEOUT)
    options.setdefault("workers", 2)
    options.setdefault("use_partitioning", True)
    return library.connector(name, n, concurrency="workers", **options)


def fifo1(**options):
    options.setdefault("default_timeout", OP_TIMEOUT)
    options.setdefault("concurrency", "workers")
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", **options
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    return conn, outs[0], ins[0]


def test_replicator_roundtrip_and_close():
    conn = workers_connector("Replicator", 2)
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
        g.spawn(outs[0].send, "x", name="send")
        r0 = g.spawn(ins[0].recv, name="r0")
        r1 = g.spawn(ins[1].recv, name="r1")
    assert r0.result == "x" and r1.result == "x"
    assert conn.engine.steps >= 1
    conn.close()
    with pytest.raises(PortClosedError):
        outs[0].send("y")


def test_stats_sum_the_workers_compiled_tier():
    """``emitted_steps`` is aggregated like ``compiled_states``: summed over
    the workers' own engines, asked live over the control channel — so a
    JIT connector's figures grow with traffic instead of staying at what
    the ready handshake carried."""
    conn = workers_connector("Replicator", 2, compiled="require")
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    stats = conn.stats()
    conn.close()
    assert stats["compiled_regions"] >= 1
    assert 1 <= stats["emitted_steps"] and 1 <= stats["compiled_states"]

    # Unpartitioned, so the one region's product has states left to find.
    conn = workers_connector(
        "FifoChain", 3, composition="jit", use_partitioning=False)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    at_start = conn.stats()
    for i in range(4):
        outs[0].send(i)
        assert ins[0].recv() == i
    after = conn.stats()
    conn.close()
    assert after["expansions"] > at_start["expansions"]
    assert after["compiled_states"] > at_start["compiled_states"]


def test_pipeline_crosses_worker_boundary():
    """An EarlyAsyncRouter's regions are split round-robin across two
    workers, so values flow through the touched/kick relay between
    processes — not just within one inner engine."""
    conn = workers_connector("EarlyAsyncRouter", 3)
    outs, ins = mkports(1, 3)
    conn.connect(outs, ins)
    table = conn.engine.routing_table()
    assert len(set(table.values())) > 1, table
    assert len(conn.engine.worker_pids()) == 2
    def send_all():
        for i in range(10):
            outs[0].send(i)
        return True

    h = spawn(send_all)
    got = []
    deadline = time.monotonic() + OP_TIMEOUT
    while len(got) < 10:
        assert time.monotonic() < deadline, "router starved"
        for p in ins:
            ok, v = p.try_recv()
            if ok:
                got.append(v)
    assert h.join(JOIN_TIMEOUT) is True
    assert sorted(got) == list(range(10))
    conn.close()


def test_posted_ops_complete_and_quiesce():
    """post_* handles resolve exactly as on the thread backends, and the
    post itself does not return until relayed kick cascades have
    quiesced — the determinism contract the fuzz oracle relies on."""
    conn, out, inp = fifo1()
    h_send = conn.engine.post_send(out._vertex, "v")
    assert h_send.done and h_send.error is None
    h_recv = conn.engine.post_recv(inp._vertex)
    assert h_recv.done and h_recv.value == "v"
    conn.close()


def test_try_ops_and_capacity():
    conn, out, inp = fifo1()
    ok, _ = inp.try_recv()
    assert not ok  # empty
    assert out.try_send(1)
    assert not out.try_send(2)  # fifo1 full: offer withdrawn in-worker
    ok, v = inp.try_recv()
    assert ok and v == 1
    conn.close()


def test_timeout_withdraws_blocked_op():
    conn, out, inp = fifo1()
    t0 = time.monotonic()
    with pytest.raises(ProtocolTimeoutError):
        inp.recv(timeout=0.3)
    assert time.monotonic() - t0 < OP_TIMEOUT / 2
    # the withdrawn op left no residue: a real exchange still works
    out.send("after")
    assert inp.recv() == "after"
    conn.close()


def test_deadlock_detection_two_receivers():
    conn, out, inp = fifo1(expected_parties=2)

    def recv_expect_deadlock():
        with pytest.raises(DeadlockError):
            inp.recv()
        return True

    h1 = spawn(recv_expect_deadlock)
    time.sleep(0.02)
    h2 = spawn(recv_expect_deadlock)
    assert h1.join(30) and h2.join(30)
    conn.close()


def test_overload_shed_newest_counts_and_dead_letters():
    """Admission adjudication happens inside the owning worker (the inner
    engine runs with overload=None); the shed must still be visible in the
    parent's counters and dead-letter view."""
    conn, out, inp = fifo1(
        overload=OverloadPolicy(
            "shed_newest", max_pending=0, dead_letter_capacity=4
        )
    )
    out.send(1)  # completes immediately into the fifo
    out.send(2)  # fifo full -> shed, reported as success
    assert conn.engine.shed_count() == 1
    letters = conn.engine.dead_letters()
    assert [dl.value for dl in letters] == [2]
    assert inp.recv() == 1
    conn.close()


def test_checkpoint_restore_roundtrip():
    conn, out, inp = fifo1()
    out.send("buffered")
    cp = conn.checkpoint()
    assert cp.steps == conn.engine.steps
    conn.close()

    conn2, out2, inp2 = fifo1()
    conn2.restore(cp)
    assert inp2.recv() == "buffered"
    ok, _ = inp2.try_recv()
    assert not ok  # exactly once
    conn2.close()


def test_drain_flushes_buffered_values_then_closes():
    conn = workers_connector("FifoChain", 2, workers=1)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    outs[0].send("x")  # buffered in the chain, no receiver yet
    h = spawn(ins[0].recv)
    conn.drain(timeout=30)  # drained only once the receiver flushes "x"
    assert h.join(JOIN_TIMEOUT) == "x"
    with pytest.raises(PortClosedError):
        outs[0].send("y")


def test_leave_reconfigures_running_workers():
    """Party departure re-migrates protocol state through the same
    checkpoint hand-off the workers started with."""
    conn = workers_connector("Merger", 2)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
        g.spawn(outs[0].send, "a", name="send")
        r = g.spawn(ins[0].recv, name="recv")
    assert r.result == "a"
    report = conn.leave(outs[0], task="A")
    assert report.removed_vertices
    assert outs[0].closed
    with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
        g.spawn(outs[1].send, "b", name="send")
        r = g.spawn(ins[0].recv, name="recv")
    assert r.result == "b"
    conn.close()


def test_killed_worker_fails_blocked_ops_with_peer_error():
    conn, out, inp = fifo1(workers=1)

    def recv_expect_peer_failure():
        with pytest.raises(PeerFailedError):
            inp.recv()
        return True

    h = spawn(recv_expect_peer_failure)
    time.sleep(0.1)
    assert conn.engine.kill_worker(0)
    assert h.join(30) is True
    conn.close()


def test_worker_kill_fault_is_deterministic():
    """The seeded ``worker_kill`` fault kind SIGKILLs the worker owning the
    port's vertex immediately before the N-th operation — the same plan
    must strand the same op on every run."""

    def run_once():
        conn = workers_connector("FifoChain", 2, workers=1)
        outs, ins = mkports(1, 1)
        conn.connect(outs, ins)
        out, inp = outs[0], ins[0]
        plan = FaultPlan([FaultSpec("worker_kill", inp.name, at_op=2)])
        finp = plan.wrap(inp)
        out.send("a")
        out.send("b")  # both buffered: the chain holds two values
        delivered = []
        failed_at = None
        for i in range(2):
            try:
                delivered.append(finp.recv())
            except PeerFailedError:
                failed_at = i
                break
        conn.close()
        return delivered, failed_at

    first = run_once()
    second = run_once()
    assert first == second
    assert first[0] == ["a"] and first[1] == 1


def test_worker_kill_fault_noop_on_thread_backend():
    conn, out, inp = fifo1(concurrency="regions")
    plan = FaultPlan([FaultSpec("worker_kill", inp.name, at_op=1)])
    finp = plan.wrap(inp)
    out.send("x")
    assert finp.recv() == "x"  # no worker processes: documented no-op
    conn.close()
