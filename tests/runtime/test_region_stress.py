"""Seeded multi-threaded stress for the region-parallel engine.

Hammers the cold paths that stop the world (checkpoint, leave/
re-parametrization, drain, watchdog quarantine) *concurrently* with
region-parallel firing on multiple OS threads, and closes each scenario
with the conservation law of tests/runtime/test_observe.py:
``delivered + shed == submitted`` — both in the runtime's own books and in
the metric registry.  Every schedule is seeded (``runtime/faults.py``), so
a red run names the exact seed to replay.
"""

import threading
import time

import pytest

from repro.compiler.fromgraph import connector_from_graph
from repro.connectors import library
from repro.connectors.graph import Arc, ConnectorGraph
from repro.connectors.library import BuiltConnector
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import mkports
from repro.runtime.tasks import SupervisedTaskGroup, TaskGroup
from repro.runtime.watchdog import Watchdog
from repro.util.errors import (
    CheckpointError,
    DeadlockError,
    PortClosedError,
    ProtocolTimeoutError,
    StallError,
)

pytestmark = pytest.mark.fault_stress

OP_TIMEOUT = 10.0
JOIN_TIMEOUT = 30.0


def lanes_connector(k: int, depth: int = 2, **options):
    graph = ConnectorGraph()
    tails, heads = [], []
    for lane in range(k):
        for i in range(1, depth + 1):
            graph = graph.add(
                Arc("fifo1", (f"l{lane}x{i - 1}",), (f"l{lane}x{i}",), ())
            )
        tails.append(f"l{lane}x0")
        heads.append(f"l{lane}x{depth}")
    built = BuiltConnector(graph, tuple(tails), tuple(heads))
    options.setdefault("use_partitioning", True)
    return connector_from_graph(built, name=f"Lanes{k}", **options)


def sample_value(registry, name, labels):
    for fam in registry.collect():
        if fam.name == name:
            for labelvalues, value in fam.samples():
                if labelvalues == labels:
                    return value
    raise AssertionError(f"{name}{labels} not found")


@pytest.mark.parametrize("seed", [11, 23])
def test_checkpoint_drain_hammer_conservation(seed, concurrency="regions"):
    """k lanes fire region-parallel under seeded fault delays while one
    thread hammers checkpoint() and the main thread finishes with a drain;
    the books must balance exactly afterwards."""
    k, m = 4, 40
    registry = MetricsRegistry()
    conn = lanes_connector(
        k,
        default_timeout=OP_TIMEOUT,
        metrics=registry,
        overload=OverloadPolicy(kind="shed_newest", max_pending=4),
        concurrency=concurrency,
    )
    outs, ins = mkports(k, k)
    conn.connect(outs, ins)
    # Seeded delay schedules on every port: jitters the interleaving of
    # submissions, firings, and the stop-world hammer without losing ops.
    plan = FaultPlan.random(
        seed, [p.name for p in outs + ins], kinds=("delay",)
    )
    wouts = [plan.wrap(p) for p in outs]
    wins = [plan.wrap(p) for p in ins]

    received = [0] * k
    checkpoints = {"ok": 0, "busy": 0}
    stop = threading.Event()

    def producer(i):
        for j in range(m):
            wouts[i].send((i, j))

    def consumer(i):
        try:
            while True:
                wins[i].recv(timeout=0.5)
                received[i] += 1
        except (ProtocolTimeoutError, PortClosedError, DeadlockError):
            return

    def hammer():
        while not stop.is_set():
            try:
                conn.checkpoint()
                checkpoints["ok"] += 1
            except CheckpointError:
                checkpoints["busy"] += 1
            time.sleep(0.001)

    hammer_t = threading.Thread(target=hammer)
    hammer_t.start()
    with TaskGroup() as g:
        for i in range(k):
            g.spawn(producer, i)
            g.spawn(consumer, i)
    conn.drain(timeout=JOIN_TIMEOUT)
    stop.set()
    hammer_t.join(JOIN_TIMEOUT)

    shed = conn.shed_count()
    submitted = k * m
    delivered = sum(received)
    assert delivered + shed == submitted, (
        f"seed {seed}: delivered {delivered} + shed {shed} != {submitted}"
    )
    # The registry saw the same world as the runtime's own books.
    reg_sub = sum(
        sample_value(
            registry, "repro_ops_submitted_total", (conn.name, v, "send")
        )
        for v in [f"l{i}x0" for i in range(k)]
    )
    reg_done = sum(
        sample_value(
            registry, "repro_ops_completed_total", (conn.name, f"l{i}x2", "recv")
        )
        for i in range(k)
    )
    assert reg_sub == submitted
    assert reg_done == delivered
    # The hammer really contended with live firing: it must have seen the
    # engine busy at least once, and quiescent at least once after drain.
    assert checkpoints["busy"] > 0 or checkpoints["ok"] > 0
    with pytest.raises(PortClosedError):
        outs[0].send("late")


@pytest.mark.parametrize("seed", [7])
def test_leave_quarantine_concurrent_with_firing(seed, concurrency="regions"):
    """A supervised farm on a partitioned merger: one producer stalls (the
    watchdog quarantines it → leave() re-parametrizes mid-traffic), the
    rest keep firing region-parallel; every surviving value arrives."""
    n, m = 3, 200
    conn = library.connector(
        "EarlyAsyncMerger", n,
        default_timeout=OP_TIMEOUT,
        use_partitioning=True,
        concurrency=concurrency,
    )
    outs, (result_in,) = mkports(n, 1)
    conn.connect(outs, [result_in])
    assert len(conn.engine.regions) >= 2  # fifo halves decouple

    plan = FaultPlan(
        [FaultSpec("slow_task", outs[n - 1].name, at_op=2, delay=5.0)]
    )
    slow_out = plan.wrap(outs[n - 1])
    collected: list = []
    group = SupervisedTaskGroup(
        join_timeout=JOIN_TIMEOUT, on_departure="reparametrize"
    )

    def producer(i):
        def run():
            # Paced: keeps the engine firing throughout the stall window so
            # the watchdog sees a *stall* (peers active), not a deadlock.
            for j in range(m):
                outs[i].send((i, j))
                time.sleep(0.001)
        return run

    def slow_producer():
        for j in range(10):
            slow_out.send(("slow", j))

    def consumer():
        try:
            while True:
                collected.append(result_in.recv(timeout=2.0))
        except (PortClosedError, ProtocolTimeoutError, DeadlockError):
            return

    records = [
        group.spawn(producer(i), ports=[outs[i]], name=f"p{i}")
        for i in range(n - 1)
    ]
    slow = group.spawn(slow_producer, ports=[outs[n - 1]], name="slow")
    cons = group.spawn(consumer, ports=[result_in], name="consumer")

    dog = Watchdog(
        [conn], probe_interval=0.02, stall_after=0.25,
        group=group, escalate=True,
    )
    with dog:
        deadline = time.monotonic() + JOIN_TIMEOUT
        while not dog.reports and time.monotonic() < deadline:
            time.sleep(0.01)
    assert dog.reports and dog.reports[0].task == "slow"

    for r in records:
        r.join(JOIN_TIMEOUT)
    assert slow.departed and isinstance(slow.exception, StallError)
    conn.close()
    cons.join(JOIN_TIMEOUT)
    survivors = [v for v in collected if v[0] != "slow"]
    assert sorted(survivors) == sorted(
        (i, j) for i in range(n - 1) for j in range(m)
    ), f"seed {seed}: lost survivor values"


@pytest.mark.parametrize("scenario, seed", [
    (test_checkpoint_drain_hammer_conservation, 11),
    (test_checkpoint_drain_hammer_conservation, 23),
    (test_leave_quarantine_concurrent_with_firing, 7),
])
def test_stress_scenarios_with_one_group_lock(scenario, seed):
    """Both scenarios again under ``concurrency="global"`` — the same
    scheduler with every region sharing one lock, which must survive the
    stop-the-world hammer and a mid-traffic ``reconfigure`` (one extra test
    rather than a second parameter, so the scenarios keep their ids)."""
    scenario(seed, concurrency="global")
