"""The recovery layer: checkpoints, restart policies, re-parametrization.

PR 1 made failures detected; this layer makes them survivable.  The two
acceptance scenarios of the issue live here: (1) crashing one of n parties
mid-protocol under a RestartPolicy completes with the *same trace* as an
uninterrupted run; (2) when the restart budget is exhausted, the connector
re-parametrizes to n−1 parties and the survivors drain without deadlock.
"""

import dataclasses
import threading
import time

import pytest

from repro.connectors import library
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFault, assert_recovered
from repro.runtime.ports import mkports
from repro.runtime.recovery import RestartPolicy
from repro.runtime.tasks import SupervisedTaskGroup
from repro.runtime.trace import TraceRecorder
from repro.util.errors import (
    CheckpointError,
    CompilationError,
    PeerFailedError,
    RuntimeProtocolError,
)

OP_TIMEOUT = 5.0
pytestmark = pytest.mark.fault_stress

JOIN_TIMEOUT = 20.0

FAST = dict(backoff_base=0.001, backoff_factor=1.0, jitter=0.0)


def resumable_sender(port, values, sent):
    """A sender that survives restarts: progress lives outside the run, so a
    relaunch resumes exactly where the crash interrupted (faults fire before
    the operation is submitted — nothing is duplicated or lost)."""

    def run():
        while len(sent) < len(values):
            port.send(values[len(sent)])
            sent.append(values[len(sent)])

    return run


def resumable_receiver(port, count, got):
    def run():
        while len(got) < count:
            got.append(port.recv())

    return run


# --------------------------------------------------------------------------
# RestartPolicy
# --------------------------------------------------------------------------


def test_restart_policy_delay_is_deterministic():
    p = RestartPolicy(seed=7)
    assert p.delay("worker", 2) == p.delay("worker", 2)
    assert p.delay("worker", 2) != p.delay("worker", 3)
    assert p.delay("worker", 2) != p.delay("other", 2)
    # The same seed reproduces the same schedule; a different seed does not.
    assert RestartPolicy(seed=7).delay("w", 1) == RestartPolicy(seed=7).delay("w", 1)
    assert RestartPolicy(seed=7).delay("w", 1) != RestartPolicy(seed=8).delay("w", 1)


def test_restart_policy_backoff_shape():
    p = RestartPolicy(backoff_base=0.1, backoff_factor=2.0, backoff_max=0.35, jitter=0.0)
    assert p.delay("t", 1) == pytest.approx(0.1)
    assert p.delay("t", 2) == pytest.approx(0.2)
    assert p.delay("t", 3) == pytest.approx(0.35)  # capped
    assert p.delay("t", 9) == pytest.approx(0.35)
    jittered = RestartPolicy(backoff_base=0.1, jitter=0.5)
    assert 0.05 <= jittered.delay("t", 1) <= 0.15


def test_restart_policy_should_restart():
    p = RestartPolicy(max_retries=2, restart_on=(ValueError,))
    assert p.should_restart(ValueError(), 1)
    assert p.should_restart(ValueError(), 2)
    assert not p.should_restart(ValueError(), 3)  # budget exhausted
    assert not p.should_restart(TypeError(), 1)  # not in restart_on
    assert not p.should_restart(KeyboardInterrupt(), 1)  # never BaseException


def test_restart_policy_validation():
    with pytest.raises(ValueError):
        RestartPolicy(max_retries=-1)
    with pytest.raises(ValueError):
        RestartPolicy(jitter=1.0)


# --------------------------------------------------------------------------
# Supervised restarts (no connector involved)
# --------------------------------------------------------------------------


def test_supervised_task_restarts_until_success():
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise ValueError("transient")
        return "done"

    with SupervisedTaskGroup(restart_policy=RestartPolicy(max_retries=5, **FAST)) as g:
        h = g.spawn(flaky, name="flaky")
    assert h.join(JOIN_TIMEOUT) == "done"
    assert h.restarts == 2
    assert h.exception is None
    assert len(attempts) == 3


def test_supervised_task_restart_budget_exhausts():
    def hopeless():
        raise ValueError("permanent")

    g = SupervisedTaskGroup(restart_policy=RestartPolicy(max_retries=2, **FAST))
    h = g.spawn(hopeless, name="hopeless")
    with pytest.raises(ValueError, match="permanent"):
        h.join(JOIN_TIMEOUT)
    assert h.restarts == 2
    with pytest.raises(ValueError):
        g.join_all()


def test_non_retryable_exception_fails_immediately():
    runs = []

    def dies():
        runs.append(1)
        raise TypeError("not retryable")

    g = SupervisedTaskGroup(
        restart_policy=RestartPolicy(max_retries=5, restart_on=(ValueError,), **FAST)
    )
    h = g.spawn(dies, name="dies")
    with pytest.raises(TypeError):
        h.join(JOIN_TIMEOUT)
    assert h.restarts == 0 and len(runs) == 1


def test_no_policy_behaves_like_seed_supervision():
    """Without a RestartPolicy a crash propagates to peers immediately —
    the PR 1 contract is unchanged."""
    conn = library.connector("Replicator", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    got, errors = [], []

    def consumer(p):
        try:
            while True:
                got.append(p.recv())
        except PeerFailedError as exc:
            errors.append(exc)

    def crasher():
        raise RuntimeError("boom")

    with pytest.raises(RuntimeError, match="boom"):
        with SupervisedTaskGroup() as g:
            g.spawn(consumer, ins[0], ports=[ins[0]], name="c0")
            g.spawn(consumer, ins[1], ports=[ins[1]], name="c1")
            h = g.spawn(crasher, ports=[outs[0]], name="crasher")
    conn.close()
    assert isinstance(h.exception, RuntimeError)
    assert len(errors) == 2
    assert all(e.task == "crasher" for e in errors)


def test_on_departure_validation():
    with pytest.raises(ValueError, match="on_departure"):
        SupervisedTaskGroup(on_departure="explode")


# --------------------------------------------------------------------------
# Acceptance 1: crash one of n parties mid-protocol; after restart the run
# completes with the same trace as an uninterrupted one.
# --------------------------------------------------------------------------


def _run_alternator(n, rounds, plan=None, policy=None):
    tracer = TraceRecorder()
    conn = library.connector(
        "Alternator", n, default_timeout=OP_TIMEOUT, tracer=tracer
    )
    outs, ins = mkports(n, 1)
    conn.connect(outs, ins)
    if plan is not None:
        outs = plan.wrap_all(outs)
        ins = plan.wrap_all(ins)
    got: list = []
    sents = [[] for _ in range(n)]
    records = []
    with SupervisedTaskGroup(restart_policy=policy) as g:
        for i in range(n):
            values = [f"v{i}r{r}" for r in range(rounds)]
            records.append(
                g.spawn(
                    resumable_sender(outs[i], values, sents[i]),
                    ports=[outs[i]],
                    name=f"p{i}",
                )
            )
        records.append(
            g.spawn(
                resumable_receiver(ins[0], n * rounds, got),
                ports=[ins[0]],
                name="consumer",
            )
        )
    labels = [e.label for e in tracer.events]
    steps = conn.steps
    conn.close()
    return got, labels, steps, records


def test_crash_mid_protocol_restart_same_trace():
    n, rounds = 3, 4
    ref_got, ref_labels, ref_steps, _ = _run_alternator(n, rounds)

    # Crash producer 1 on its 2nd send and the consumer on its 5th recv;
    # both resume from their progress state after a supervised restart.
    policy = RestartPolicy(max_retries=3, restart_on=(InjectedFault,), **FAST)
    tracer = TraceRecorder()
    conn = library.connector(
        "Alternator", n, default_timeout=OP_TIMEOUT, tracer=tracer
    )
    outs, ins = mkports(n, 1)
    conn.connect(outs, ins)
    plan = FaultPlan(
        [
            FaultSpec("crash_then_recover", outs[1].name, 2),
            FaultSpec("crash_then_recover", ins[0].name, 5),
        ],
        name="midcrash",
    )
    wouts = plan.wrap_all(outs)
    wins = plan.wrap_all(ins)
    got: list = []
    sents = [[] for _ in range(n)]
    with SupervisedTaskGroup(restart_policy=policy) as g:
        records = [
            g.spawn(
                resumable_sender(wouts[i], [f"v{i}r{r}" for r in range(rounds)], sents[i]),
                ports=[wouts[i]],
                name=f"p{i}",
            )
            for i in range(n)
        ]
        records.append(
            g.spawn(
                resumable_receiver(wins[0], n * rounds, got),
                ports=[wins[0]],
                name="consumer",
            )
        )
    labels = [e.label for e in tracer.events]
    steps = conn.steps
    conn.close()

    assert len(plan.applied) == 2, plan.applied
    assert_recovered(plan, records)
    # Trace equivalence with the uninterrupted run: same deliveries in the
    # same order, same fired labels, same global step count.
    assert got == ref_got
    assert labels == ref_labels
    assert steps == ref_steps


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_restart_jitter_is_reproducible_end_to_end(seed):
    """Two runs with the same policy seed schedule identical backoffs."""
    p1 = RestartPolicy(seed=seed, jitter=0.5)
    p2 = RestartPolicy(seed=seed, jitter=0.5)
    sched1 = [p1.delay(f"t{i}", a) for i in range(4) for a in (1, 2, 3)]
    sched2 = [p2.delay(f"t{i}", a) for i in range(4) for a in (1, 2, 3)]
    assert sched1 == sched2


# --------------------------------------------------------------------------
# Acceptance 2: retries exhausted -> re-parametrize to n−1 and drain.
# --------------------------------------------------------------------------


def test_exhausted_retries_reparametrize_merger(concurrency="regions"):
    n, k = 3, 4
    conn = library.connector(
        "Merger", n, default_timeout=OP_TIMEOUT, concurrency=concurrency,
    )
    outs, ins = mkports(n, 1)
    conn.connect(outs, ins)
    got: list = []

    def producer(i):
        def run():
            for r in range(k):
                outs[i].send(f"v{i}r{r}")

        return run

    def hopeless():
        raise RuntimeError("dead for good")

    policy = RestartPolicy(max_retries=1, **FAST)
    with SupervisedTaskGroup(
        restart_policy=policy, on_departure="reparametrize"
    ) as g:
        g.spawn(producer(0), ports=[outs[0]], name="p0")
        g.spawn(producer(1), ports=[outs[1]], name="p1")
        dead = g.spawn(hopeless, ports=[outs[2]], name="p2")
        g.spawn(
            resumable_receiver(ins[0], 2 * k, got), ports=[ins[0]], name="consumer"
        )

    # The dead party's failure was absorbed: join did not raise, the
    # connector shrank to 2 producers, and every surviving value arrived.
    assert dead.departed and isinstance(dead.exception, RuntimeError)
    assert dead.restarts == 1
    assert len(conn.tail_vertices) == n - 1
    assert sorted(got) == sorted(f"v{i}r{r}" for i in range(2) for r in range(k))
    assert len(g.departures) == 1
    report = g.departures[0]
    assert report.task == "p2" and len(report.removed_vertices) == 1
    assert outs[2].closed and not outs[0].closed
    conn.close()


def test_leave_after_close_vertex_spares_the_renamed_survivor(
        concurrency="regions"):
    """The supervised crash path closes the dead party's vertex, then
    leaves: ``t@1`` departs *closed*, and survivor ``t@2`` is renamed onto
    ``t@1``.  What was recorded about the departed vertex goes with it —
    the survivor must not inherit its closure or its error."""
    conn = library.connector(
        "Merger", 3, default_timeout=OP_TIMEOUT, concurrency=concurrency,
    )
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    try:
        dying = outs[0]._vertex
        conn.engine.close_vertex(
            dying, PeerFailedError("A", message="A died"))
        conn.leave(outs[0])
        assert outs[1]._vertex == dying  # renamed onto the departed name
        assert conn.engine._closed_vertices == set()
        assert conn.engine._vertex_errors == {}
        sender = threading.Thread(target=outs[1].send, args=("b",))
        sender.start()
        assert ins[0].recv() == "b"
        sender.join(JOIN_TIMEOUT)
        assert not sender.is_alive()
    finally:
        conn.close()


@pytest.mark.parametrize("concurrency", ["global"])
@pytest.mark.parametrize("scenario", [
    test_exhausted_retries_reparametrize_merger,
    test_leave_after_close_vertex_spares_the_renamed_survivor,
], ids=lambda f: f.__name__)
def test_departure_scenarios_on_every_backend(scenario, concurrency):
    """Both departure scenarios again with every region handed one lock (one
    extra test rather than a parameter on each, so the scenarios keep their
    ids): the boundary remap is the host's, so both layouts must agree."""
    scenario(concurrency)


def test_departed_consumer_unblocks_replicator_producer():
    """A producer blocked mid-send on a full-sync replicator survives the
    permanent death of one consumer: the pending send migrates across the
    re-parametrization and fires with the remaining consumers."""
    n, k = 3, 5
    conn = library.connector("Replicator", n, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, n)
    conn.connect(outs, ins)
    gots = [[] for _ in range(n)]

    def dead_consumer():
        raise RuntimeError("never receives")

    with SupervisedTaskGroup(
        restart_policy=RestartPolicy(max_retries=0, **FAST),
        on_departure="reparametrize",
    ) as g:
        g.spawn(
            resumable_sender(outs[0], list(range(k)), []),
            ports=[outs[0]],
            name="producer",
        )
        for i in range(n - 1):
            g.spawn(
                resumable_receiver(ins[i], k, gots[i]),
                ports=[ins[i]],
                name=f"c{i}",
            )
        g.spawn(dead_consumer, ports=[ins[n - 1]], name="dead")

    assert gots[0] == list(range(k))
    assert gots[1] == list(range(k))
    assert len(conn.head_vertices) == n - 1
    assert len(g.departures) == 1
    conn.close()


def test_explicit_leave():
    conn = library.connector("Merger", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    got: list = []

    def recv_some(count):
        t = threading.Thread(
            target=lambda: got.extend(ins[0].recv() for _ in range(count))
        )
        t.start()
        return t

    t = recv_some(2)
    outs[0].send("a1")
    outs[0].send("a2")
    t.join(JOIN_TIMEOUT)

    report = conn.leave(outs[0], task="A")
    assert report.task == "A"
    assert report.removed_vertices and report in conn.departures
    # Port A is now unusable; port B was rebound and keeps working.
    assert outs[0].closed
    assert len(conn.tail_vertices) == 1

    t = recv_some(2)
    outs[1].send("b1")
    outs[1].send("b2")
    t.join(JOIN_TIMEOUT)
    assert got == ["a1", "a2", "b1", "b2"]
    conn.close()


def test_leave_requires_compiled_protocol():
    conn = library.connector("Merger", 2, from_dsl=False, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    with pytest.raises(RuntimeProtocolError, match="compiled protocol"):
        conn.leave(outs[0])
    conn.close()


def test_scalar_party_cannot_leave():
    conn = library.connector("Merger", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    with pytest.raises(CompilationError, match="scalar"):
        conn.leave(ins[0])  # the single consumer is a scalar parameter
    conn.close()


def test_last_array_element_cannot_leave():
    conn = library.connector("Merger", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    conn.leave(outs[0])
    with pytest.raises(CompilationError, match="empty"):
        conn.leave(outs[1])  # would leave a 0-producer merger
    conn.close()


def test_leave_rejects_foreign_port():
    conn = library.connector("Merger", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    stranger, _ = mkports(1, 0)
    with pytest.raises(RuntimeProtocolError, match="not connected"):
        conn.leave(stranger[0])
    conn.close()


# --------------------------------------------------------------------------
# Re-parametrization down to a single surviving party (arity 2 → 1)
# --------------------------------------------------------------------------


def test_arity_2_to_1_with_pending_recv():
    """2→1 with a receive blocked across the leave: the pending op migrates
    (same deque object, renamed vertex) and the survivor serves it."""
    conn = library.connector("Merger", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    got: list = []
    t = threading.Thread(target=lambda: got.append(ins[0].recv()))
    t.start()
    time.sleep(0.05)  # let the recv commit before the departure

    report = conn.leave(outs[0], task="A")
    assert not report.dropped_buffers
    outs[1].send("b1")
    t.join(JOIN_TIMEOUT)
    assert got == ["b1"]
    conn.close()


@pytest.mark.parametrize("mode", ["jit", "aot"])
def test_arity_2_to_1_buffered_value_migrates(mode):
    """2→1 on a buffering connector with a value in flight: the survivor's
    fifo content must be *deliverable* after the shrink — the fresh regions'
    control states are reconciled with the migrated occupancies, not left
    at their (empty-fifo) initial states."""
    conn = library.connector(
        "EarlyAsyncMerger", 2, composition=mode, default_timeout=OP_TIMEOUT
    )
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    outs[1].send("keep")  # buffered in the survivor's fifo

    report = conn.leave(outs[0], task="A")
    assert not report.dropped_buffers
    assert ins[0].recv() == "keep"
    # The shrunk protocol keeps cycling (state, not just contents, is sane).
    outs[1].send("next")
    assert ins[0].recv() == "next"
    conn.close()


def test_arity_3_to_2_buffered_values_migrate():
    """Same reconciliation at higher arity: both survivors' buffered values
    stay deliverable after the middle producer departs."""
    conn = library.connector("EarlyAsyncMerger", 3, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    outs[0].send("first")
    outs[2].send("third")

    report = conn.leave(outs[1], task="B")
    assert not report.dropped_buffers
    assert sorted(ins[0].recv() for _ in range(2)) == ["first", "third"]
    conn.close()


def test_leave_carries_a_send_completed_before_the_world_stops():
    """A send that completes into a survivor's fifo after ``leave()`` has
    re-evaluated the protocol but before the engine stops the world is
    migrated with the rest: the buffers are read with the world stopped.
    The send is made deterministic by running it from a wrapper around
    ``engine.reconfigure``, i.e. exactly in that window."""
    conn = library.connector("EarlyAsyncMerger", 3, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    outs[0].send("early")
    engine = conn.engine
    reconfigure = engine.reconfigure

    def send_then_reconfigure(*args, **kwargs):
        outs[2].send("late")  # completes at once: the fifo has room
        return reconfigure(*args, **kwargs)

    engine.reconfigure = send_then_reconfigure
    report = conn.leave(outs[1], task="B")
    assert not report.dropped_buffers
    got = sorted(ins[0].recv(timeout=OP_TIMEOUT) for _ in range(2))
    assert got == ["early", "late"]
    conn.close()


@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_leave_keeps_buffered_values(concurrency):
    """The last party leaves while both survivors' fifos hold a value:
    reconciliation under either lock layout carries both across."""
    conn = library.connector("EarlyAsyncMerger", 3, concurrency=concurrency,
                             default_timeout=OP_TIMEOUT)
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    outs[0].send("first")
    outs[1].send("second")
    report = conn.leave(outs[2], task="C")
    assert not report.dropped_buffers
    assert sorted(ins[0].recv(timeout=OP_TIMEOUT) for _ in range(2)) == [
        "first", "second"]
    conn.close()


def test_arity_2_to_1_unaccountable_contents_dropped_and_reported():
    """2→1 where the departed party's protocol state cannot be carried: the
    alternator's turn-tracking token belongs to the removed index, so it is
    dropped *and reported* — and the shrunk connector still works."""
    conn = library.connector("Alternator", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)

    report = conn.leave(outs[1], task="B")
    assert report.dropped_buffers, "lost token must be reported, not silent"
    outs[0].send("x")
    assert ins[0].recv() == "x"
    conn.close()


# --------------------------------------------------------------------------
# Checkpoints
# --------------------------------------------------------------------------


def test_checkpoint_requires_quiescence():
    conn = library.connector("FifoChain", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)

    blocker = threading.Thread(target=ins[0].recv)  # blocks: chain is empty
    blocker.start()
    deadline = time.monotonic() + JOIN_TIMEOUT
    while conn.engine.quiescent and time.monotonic() < deadline:
        time.sleep(0.005)
    with pytest.raises(CheckpointError, match="quiescent"):
        conn.checkpoint()
    outs[0].send("unblock")
    blocker.join(JOIN_TIMEOUT)
    assert conn.engine.quiescent
    conn.checkpoint()  # now fine
    conn.close()


def test_checkpoint_rewinds_same_connector():
    conn = library.connector("FifoChain", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    outs[0].send("x")
    cp = conn.checkpoint()
    assert ins[0].recv() == "x"
    ok, _ = ins[0].try_recv()
    assert not ok  # drained
    conn.restore(cp)  # rewind: the value is buffered again
    assert ins[0].recv() == "x"
    conn.close()


def test_checkpoint_restores_into_fresh_instance():
    a = library.connector("FifoChain", 3, default_timeout=OP_TIMEOUT)
    outs_a, ins_a = mkports(1, 1)
    a.connect(outs_a, ins_a)
    outs_a[0].send(1)
    outs_a[0].send(2)
    cp = a.checkpoint()
    a.close()

    b = library.connector("FifoChain", 3, default_timeout=OP_TIMEOUT)
    outs_b, ins_b = mkports(1, 1)
    b.connect(outs_b, ins_b)
    b.restore(cp)
    assert b.steps == cp.steps
    assert [ins_b[0].recv(), ins_b[0].recv()] == [1, 2]
    b.close()


def test_checkpoint_structural_mismatch_rejected(
        concurrency="regions", bad="arity"):
    """``bad`` is what is wrong with the checkpoint: taken at another
    ``arity``, or one buffer holding more values than its ``capacity``."""
    a = library.connector(
        "FifoChain", 2 if bad == "arity" else 3, default_timeout=OP_TIMEOUT,
    )
    outs_a, ins_a = mkports(1, 1)
    a.connect(outs_a, ins_a)
    cp = a.checkpoint()
    a.close()
    if bad == "capacity":
        first = sorted(cp.buffers)[0]
        cp = dataclasses.replace(
            cp, buffers={**cp.buffers, first: ("x", "y", "z")})

    b = library.connector(
        "FifoChain", 3, default_timeout=OP_TIMEOUT, concurrency=concurrency,
    )
    outs_b, ins_b = mkports(1, 1)
    b.connect(outs_b, ins_b)
    try:
        before = b.engine.buffers.snapshot()
        with pytest.raises(CheckpointError):
            b.restore(cp)
        # A failed restore leaves the target untouched and usable.
        assert b.engine.buffers.snapshot() == before
        outs_b[0].send("still works")
        assert ins_b[0].recv() == "still works"
    finally:
        b.close()


@pytest.mark.parametrize("concurrency", ["regions", "global"])
@pytest.mark.parametrize("bad", ["arity", "capacity"])
def test_rejected_restore_leaves_every_backend_running(bad, concurrency):
    """Validation is the host's and comes before anything is touched, so a
    bad checkpoint costs neither lock layout its regions or buffers."""
    test_checkpoint_structural_mismatch_rejected(concurrency, bad)


def test_checkpoint_on_unconnected_connector():
    conn = library.connector("Merger", 2)
    with pytest.raises(RuntimeProtocolError, match="not connected"):
        conn.checkpoint()
