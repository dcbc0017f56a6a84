"""Overload layer: backpressure policies, dead letters, watchdog, drain.

Pins the PR's acceptance criteria:

* under sustained producer overload a bounded work farm with
  ``shed_newest`` keeps forward progress, and the dead-letter buffer
  accounts for *exactly* the shed values (delivered ∪ shed == sent,
  disjoint — an invariant independent of thread scheduling);
* an injected ``slow_task`` is flagged by the watchdog and quarantined
  without stalling its peers;
* ``drain()`` flushes every buffered value before closing;
* ``block`` stays the default — the overload layer is strictly opt-in.
"""

import threading
import time

import pytest

from repro.connectors import library
from repro.fuzz.oracle import conservation_violations
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.overload import POLICY_KINDS, DeadLetterBuffer, OverloadPolicy
from repro.runtime.ports import mkports
from repro.runtime.tasks import SupervisedTaskGroup
from repro.runtime.watchdog import Watchdog
from repro.util.errors import (
    PortClosedError,
    ProtocolTimeoutError,
    StallError,
)

pytestmark = pytest.mark.fault_stress

OP_TIMEOUT = 5.0
JOIN_TIMEOUT = 20.0


def fifo_chain(n=1, **options):
    """A connected n-stage fifo chain: (connector, outport, inport)."""
    conn = library.connector("FifoChain", n, default_timeout=OP_TIMEOUT, **options)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    return conn, outs[0], ins[0]


# --------------------------------------------------------------------------
# OverloadPolicy / DeadLetterBuffer data types
# --------------------------------------------------------------------------


def test_policy_validation():
    assert POLICY_KINDS == ("block", "shed_newest")
    assert OverloadPolicy().kind == "block"
    for kind in ("explode", "fail_fast", "shed_oldest"):
        with pytest.raises(ValueError, match=f"unknown overload policy {kind!r}"):
            OverloadPolicy(kind, max_pending=0)
    with pytest.raises(ValueError, match="max_pending"):
        OverloadPolicy("shed_newest")  # shedding needs the bound
    with pytest.raises(ValueError, match=">= 0"):
        OverloadPolicy("shed_newest", max_pending=-1)
    with pytest.raises(ValueError, match="dead_letter_capacity"):
        OverloadPolicy("shed_newest", max_pending=1, dead_letter_capacity=0)


def test_dead_letter_buffer_exact_counts_past_eviction():
    dead = DeadLetterBuffer()
    for i in range(5):
        dead.capture("v", i, "shed_newest", step=i, capacity=2)
    # The bounded buffer keeps the newest two; the count never lies.
    assert [l.value for l in dead.of("v")] == [3, 4]
    assert dead.count("v") == 5 and dead.count() == 5
    assert len(dead) == 2
    seqs = [l.seq for l in dead.all()]
    assert seqs == sorted(seqs)


def test_overload_takes_one_policy_and_block_binds_as_none():
    shed = OverloadPolicy("shed_newest", max_pending=0)
    conn, _, _ = fifo_chain(overload=shed)
    (source,), (sink,) = conn.tail_vertices, conn.head_vertices
    assert conn.engine.binding(source).policy is shed
    assert conn.engine.binding(sink).policy is None  # receives never shed
    conn.close()
    conn, _, _ = fifo_chain(overload=OverloadPolicy("block"))
    assert conn.engine.binding(source).policy is None
    conn.close()
    conn = library.connector("FifoChain", 1, overload={source: shed})
    with pytest.raises(TypeError, match="one OverloadPolicy"):
        conn.connect(*mkports(1, 1))


# --------------------------------------------------------------------------
# Policy semantics on the connector model
# --------------------------------------------------------------------------


def test_block_is_the_default_and_still_blocks():
    conn, out, inp = fifo_chain()
    out.send(1)  # fills the single fifo
    with pytest.raises(ProtocolTimeoutError):
        out.send(2, timeout=0.1)  # block policy: waits, then times out
    assert conn.shed_count() == 0 and conn.dead_letters() == ()
    conn.close()


def test_shed_newest_drops_incoming_and_reports_success():
    conn, out, inp = fifo_chain(overload=OverloadPolicy("shed_newest", max_pending=0))
    out.send(1)
    out.send(2)  # buffer full → shed, but the send "succeeds"
    out.send(3)
    assert conn.shed_count() == 2
    assert [l.value for l in conn.dead_letters()] == [2, 3]
    assert {l.policy for l in conn.dead_letters()} == {"shed_newest"}
    assert inp.recv() == 1
    conn.close()


def test_post_send_policy_sheds_one_post_on_a_blocking_connector():
    """``engine.post_send(policy=)`` (the fuzz flood's path) sheds only the
    post that carries the policy; the connector's own ``block`` stays."""
    conn, out, inp = fifo_chain()  # default: block
    (source,) = conn.tail_vertices
    out.send("important")  # fills the single fifo
    shed = conn.engine.post_send(
        source, "optional", policy=OverloadPolicy("shed_newest", max_pending=0))
    assert shed.done and shed.error is None
    assert [l.value for l in conn.dead_letters()] == ["optional"]
    kept = conn.engine.post_send(source, "kept")  # no policy: it waits
    assert not kept.done and conn.shed_count() == 1
    assert inp.recv() == "important"
    assert kept.done and inp.recv() == "kept"
    conn.close()


def test_dead_letters_record_vertex_and_step():
    conn, out, inp = fifo_chain(overload=OverloadPolicy("shed_newest", max_pending=0))
    out.send(1)
    out.send(2)
    (letter,) = conn.dead_letters()
    assert letter.vertex == conn.tail_vertices[0]
    assert letter.seq == 0 and letter.step >= 1
    assert conn.dead_letters(letter.vertex) == (letter,)
    conn.close()


def test_leave_keeps_every_dead_letter_and_the_exact_count():
    """A departed vertex's letters and count survive ``leave()``, also when
    a survivor is renamed onto the departed name (t@3 → t@2 here)."""
    registry = MetricsRegistry()
    conn = library.connector(
        "EarlyAsyncMerger", 3, default_timeout=OP_TIMEOUT, metrics=registry,
        overload=OverloadPolicy("shed_newest", max_pending=0))
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    for i, out in enumerate(outs):
        out.send(f"fill{i}")  # each tail's fifo takes one
    for i, out in enumerate(outs):
        out.send(f"shed{i}")  # full: shed
    before = conn.dead_letters()
    assert conn.shed_count() == 3
    assert [(l.vertex, l.value) for l in before] == [
        ("t@1", "shed0"), ("t@2", "shed1"), ("t@3", "shed2")]
    conn.leave(outs[1])
    assert conn.tail_vertices == ["t@1", "t@2"]
    assert conn.shed_count() == 3
    assert conn.dead_letters() == before
    assert [l.value for l in conn.dead_letters("t@2")] == ["shed2"]
    assert conn.shed_count("t@2") == 1
    assert len(conn.engine.dead) == 3
    assert conservation_violations(registry) == []
    conn.close()


def test_stats_report_shed_and_draining():
    conn, out, inp = fifo_chain(overload=OverloadPolicy("shed_newest", max_pending=0))
    out.send(1)
    out.send(2)
    stats = conn.stats()
    assert stats["shed"] == 1 and stats["draining"] is False
    conn.engine.begin_drain()
    assert conn.stats()["draining"] is True
    conn.close()


# --------------------------------------------------------------------------
# Acceptance: bounded work farm under 4× producer overload
# --------------------------------------------------------------------------


def test_work_farm_4x_overload_shed_newest_accounts_exactly():
    """Producers push ~4× what the workers drain.  With ``shed_newest`` on
    the job intake the farm must keep forward progress (no deadlock, queue
    bounded at ``max_pending``) and every job must end up in exactly one of
    two places: a worker's result or the dead-letter buffer."""
    n_workers, n_jobs = 2, 120
    route = library.connector(
        "EarlyAsyncRouter",
        n_workers,
        overload=OverloadPolicy("shed_newest", max_pending=0),
        default_timeout=OP_TIMEOUT,
    )
    (job_out,), _ = mkports(1, 0)
    _, worker_ins = mkports(0, n_workers)
    route.connect([job_out], worker_ins)

    done: list = []
    done_lock = threading.Lock()

    def worker(rank: int):
        try:
            while True:
                job = worker_ins[rank].recv(timeout=1.0)
                time.sleep(0.002)  # bounded service rate — overload is real
                with done_lock:
                    done.append(job)
        except (PortClosedError, ProtocolTimeoutError):
            return

    threads = [threading.Thread(target=worker, args=(r,)) for r in range(n_workers)]
    for t in threads:
        t.start()
    t0 = time.monotonic()
    for job in range(n_jobs):
        job_out.send(job)  # never parks: shed_newest keeps the producer live
    producer_elapsed = time.monotonic() - t0
    route.drain(timeout=OP_TIMEOUT)  # flush admitted jobs to workers, close
    for t in threads:
        t.join(JOIN_TIMEOUT)

    shed = [l.value for l in route.dead_letters()]
    # Exact conservation, independent of scheduling: every job delivered
    # once or dead-lettered once, never both, never lost.
    assert sorted(done + shed) == list(range(n_jobs))
    assert route.shed_count() == len(shed) == n_jobs - len(done)
    assert shed, "4x overload must actually shed"
    assert done, "shedding must not starve the farm"
    # Forward progress: the producer never waited on a slow worker.
    assert producer_elapsed < OP_TIMEOUT


# --------------------------------------------------------------------------
# Watchdog: stall detection and quarantine
# --------------------------------------------------------------------------


def test_watchdog_flags_slow_task_and_quarantine_frees_peers():
    """A ``slow_task``-injected producer goes quiet while its peer keeps
    the engine firing: the watchdog must flag *that* party (not the busy
    peers) and quarantine it so the rest of the farm continues."""
    gather = library.connector("EarlyAsyncMerger", 2, default_timeout=OP_TIMEOUT)
    outs, (result_in,) = mkports(2, 1)
    gather.connect(outs, [result_in])

    plan = FaultPlan([FaultSpec("slow_task", outs[1].name, at_op=2, delay=5.0)])
    slow_out = plan.wrap(outs[1])

    collected: list = []
    group = SupervisedTaskGroup(join_timeout=JOIN_TIMEOUT, on_departure="reparametrize")

    def fast_producer():
        for i in range(200):
            outs[0].send(("fast", i))
            time.sleep(0.001)

    def slow_producer():
        for i in range(10):
            slow_out.send(("slow", i))  # op 2 onward crawls for 5s apiece

    def consumer():
        try:
            while True:
                collected.append(result_in.recv(timeout=2.0))
        except (PortClosedError, ProtocolTimeoutError):
            return

    fast = group.spawn(fast_producer, ports=[outs[0]], name="fast")
    slow = group.spawn(slow_producer, ports=[outs[1]], name="slow")
    cons = group.spawn(consumer, ports=[result_in], name="consumer")

    dog = Watchdog(
        [gather],
        probe_interval=0.02,
        stall_after=0.25,
        group=group,
        escalate=True,
    )
    with dog:
        deadline = time.monotonic() + JOIN_TIMEOUT
        while not dog.reports and time.monotonic() < deadline:
            time.sleep(0.01)
    assert dog.reports, "slow task never flagged"
    report = dog.reports[0]
    assert report.task == "slow"
    assert report.steps_since > 0  # peers were firing — a stall, not a deadlock
    assert report.idle >= 0.25

    fast.join(JOIN_TIMEOUT)
    # The quarantine re-parametrized the slow party away: peers finished at
    # full speed, the stalled task departed instead of failing the group.
    assert slow.departed and isinstance(slow.exception, StallError)
    gather.close()
    cons.join(JOIN_TIMEOUT)
    assert len([v for v in collected if v[0] == "fast"]) == 200
    assert group.departures and group.departures[0].task == "slow"


def test_watchdog_stays_silent_when_nothing_fires():
    """Both parties blocked, engine quiescent — that is deadlock-detector
    territory; the watchdog must not flag anyone (steps_since_active == 0)."""
    conn = library.connector("Barrier", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    conn.engine.register_party("p0", name="p0", vertex=conn.tail_vertices[0])
    conn.engine.register_party("p1", name="p1", vertex=conn.tail_vertices[1])

    # One party shows up; the other never does.  Nothing can fire.
    t = threading.Thread(target=lambda: outs[0].try_send("x"))
    t.start()
    t.join(JOIN_TIMEOUT)
    dog = Watchdog([conn], probe_interval=0.02, stall_after=0.05)
    time.sleep(0.15)  # idle well past stall_after...
    assert dog.probe() == []  # ...but no step fired: not a stall
    assert dog.reports == ()
    conn.close()


def test_watchdog_validation():
    with pytest.raises(ValueError, match="stall_after"):
        Watchdog([], stall_after=0.0)
    with pytest.raises(ValueError, match="group"):
        Watchdog([], escalate=True)


# --------------------------------------------------------------------------
# Graceful drain
# --------------------------------------------------------------------------


def test_drain_flushes_buffered_values_before_close():
    """Every value buffered at drain time reaches the consumer before the
    close lands — degradation in order: refuse, flush, then close."""
    conn, out, inp = fifo_chain(3)
    for v in ("a", "b", "c"):
        out.send(v)  # fills the 3-stage chain

    got: list = []

    def consumer():
        try:
            while True:
                got.append(inp.recv(timeout=2.0))
        except PortClosedError:
            got.append("closed")

    t = threading.Thread(target=consumer)
    t.start()
    time.sleep(0.05)
    conn.drain(timeout=OP_TIMEOUT)
    t.join(JOIN_TIMEOUT)
    assert got == ["a", "b", "c", "closed"]


def test_draining_connector_refuses_new_sends():
    conn, out, inp = fifo_chain()
    out.send(1)
    conn.engine.begin_drain()
    with pytest.raises(PortClosedError, match="draining"):
        out.send(2)
    with pytest.raises(PortClosedError, match="draining"):
        out.try_send(3)
    assert inp.recv() == 1  # receives keep flushing
    conn.close()


def test_drain_timeout_raises_and_leaves_connector_open():
    conn, out, inp = fifo_chain()
    out.send(1)  # buffered, and no consumer will ever take it
    with pytest.raises(ProtocolTimeoutError, match="drain"):
        conn.drain(timeout=0.1)
    assert inp.recv() == 1  # still open: the flush can be completed by hand
    conn.drain(timeout=OP_TIMEOUT)  # now empty — completes and closes


def test_drain_token_ring_respects_initial_occupancy():
    """A sequencer permanently holds its turn token; ``drained`` compares
    against the initial occupancy, not zero, so the ring drains cleanly."""
    conn = library.connector("Sequencer", 2, default_timeout=OP_TIMEOUT)
    outs, _ = mkports(2, 0)
    conn.connect(outs, [])
    conn.drain(timeout=OP_TIMEOUT)
    with pytest.raises(PortClosedError):
        outs[0].send("late")


def test_group_shutdown_drains_and_joins():
    """``SupervisedTaskGroup.shutdown`` = drain every connector + treat the
    resulting PortClosedError exits as clean ends, not crashes."""
    conn, out, inp = fifo_chain(2)
    group = SupervisedTaskGroup(join_timeout=JOIN_TIMEOUT)
    got: list = []

    def consumer():
        while True:  # no shutdown handling at all — the closed port ends it
            got.append(inp.recv(timeout=2.0))

    group.spawn(consumer, ports=[inp], name="consumer")
    out.send("x")
    out.send("y")
    group.shutdown(drain_timeout=OP_TIMEOUT)
    assert got == ["x", "y"]
    assert all(r.exception is None for r in group.handles)


# --------------------------------------------------------------------------
# Overload fault kinds (seeded chaos building blocks)
# --------------------------------------------------------------------------


def test_flood_fault_sheds_surplus_exactly():
    conn, out, inp = fifo_chain(overload=OverloadPolicy("shed_newest", max_pending=0))
    plan = FaultPlan([FaultSpec("flood", out.name, at_op=1, factor=3)])
    flooded = plan.wrap(out)
    flooded.send("v")  # 3 surplus copies + the real one; fifo holds 1
    assert plan.applied_of("flood")
    assert inp.recv() == "v"
    assert conn.shed_count() == 3  # exactly the surplus, nothing else
    conn.close()


def test_flood_without_policy_only_buffers():
    conn, out, inp = fifo_chain(3)
    plan = FaultPlan([FaultSpec("flood", out.name, at_op=1, factor=2)])
    plan.wrap(out).send("v")
    # No policy: the surplus is real traffic — buffered, then received.
    assert [inp.recv() for _ in range(3)] == ["v", "v", "v"]
    conn.close()


def test_slow_task_fault_is_persistent():
    conn, out, inp = fifo_chain()
    plan = FaultPlan([FaultSpec("slow_task", out.name, at_op=2, delay=0.05)])
    slow = plan.wrap(out)
    t0 = time.monotonic()
    slow.send(1)
    assert time.monotonic() - t0 < 0.04  # op 1: full speed
    assert inp.recv() == 1
    for i in range(2, 5):  # ops 2..4: every one crawls
        t0 = time.monotonic()
        slow.send(i)
        assert time.monotonic() - t0 >= 0.05
        assert inp.recv() == i
    assert len(plan.applied_of("slow_task")) == 1  # recorded once, at onset
    conn.close()


def test_seeded_plan_with_overload_kinds_is_reproducible():
    kinds = ("delay", "flood", "slow_task", "crash_then_recover")
    a = FaultPlan.random(seed=42, port_names=["p", "q"], n_faults=6, kinds=kinds)
    b = FaultPlan.random(seed=42, port_names=["p", "q"], n_faults=6, kinds=kinds)
    assert sorted(map(str, a.specs)) == sorted(map(str, b.specs))
    for spec in a.specs:
        if spec.kind == "flood":
            assert spec.factor >= 1
        if spec.kind == "slow_task":
            assert spec.delay > 0
