"""Engine behaviour: reactivity, τ-steps, fairness, step counting, stats."""

import threading
import time

import pytest

from repro.compiler import compile_source
from repro.connectors import library
from repro.compiler.fromgraph import connector_from_graph
from repro.runtime.ports import mkports
from repro.runtime.tasks import TaskGroup

from tests.conftest import maximal_connector, pump


def test_internal_tau_steps_fire_without_tasks():
    """Data must flow between internal fifos with no task involvement."""
    conn = compile_source(
        "P(a;b) = Fifo1(a;v) mult Fifo1(v;w) mult Fifo1(w;b)"
    ).instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    # the value shifts to the last buffer via τ steps; first fifo frees up
    outs[0].send(1)
    outs[0].send(2)
    outs[0].send(3)  # capacity 3 because the chain drained internally
    assert [ins[0].recv() for _ in range(3)] == [1, 2, 3]
    conn.close()


def test_step_counting():
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    for i in range(5):
        outs[0].send(i)
        ins[0].recv()
    assert conn.steps == 10  # one push + one pop per round trip
    conn.close()


def test_stats_shape():
    conn = library.connector("Replicator", 2)
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    st = conn.stats()
    assert set(st) >= {"steps", "plans", "regions", "expansions", "cached_states"}
    conn.close()


def test_merger_fairness_round_robin():
    """With both producers always ready, neither starves.

    "Always ready" is made true before every receive: it waits until both
    tails have a send pending.  Without that wait, about four receives in
    five found only one send pending — the other producer's thread had not
    run again yet — so the scheduler, not the round-robin, picked the
    sender, and about one run in twenty counted ≤ 20 for one side."""
    conn = connector_from_graph(library.build_graph("Merger", 2))
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    counts = {0: 0, 1: 0}
    stop = threading.Event()

    def producer(i):
        try:
            while not stop.is_set():
                outs[i].send(i)
        except Exception:
            pass

    def both_pending():
        return all(depth for _, kind, depth in conn.engine.pending_depths()
                   if kind == "send")

    with TaskGroup() as g:
        g.spawn(producer, 0)
        g.spawn(producer, 1)
        for _ in range(200):
            deadline = time.monotonic() + 10.0
            while not both_pending():
                assert time.monotonic() < deadline, "a producer never sent"
                time.sleep(0.0002)
            counts[ins[0].recv()] += 1
        stop.set()
        conn.close()
    assert counts[0] > 20 and counts[1] > 20


def test_nondeterminism_not_biased_to_first_branch():
    """Router with both consumers waiting must use both branches."""
    conn = connector_from_graph(library.build_graph("Router", 2))
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    hits = {0: 0, 1: 0}

    def consumer(i):
        try:
            while True:
                ins[i].recv()
                hits[i] += 1
        except Exception:
            pass

    with TaskGroup() as g:
        g.spawn(consumer, 0)
        g.spawn(consumer, 1)
        for k in range(200):
            outs[0].send(k)
        import time

        time.sleep(0.1)
        conn.close()
    assert hits[0] > 0 and hits[1] > 0


def test_engine_initial_drain_with_initialized_fifo():
    """A token ring with an initialized fifo may fire internal steps at
    connect time; the engine must be quiescent-correct from the start."""
    conn = library.connector("Sequencer", 2)
    outs, _ = mkports(2, 0)
    conn.connect(outs, [])
    assert outs[0].try_send("x")  # slot 1 available immediately
    conn.close()


def test_concurrent_senders_single_vertex_queue():
    """Two threads sending on the same port are serialized, not lost."""
    conn = compile_source("P(a;b) = Fifo(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)

    def sender(lo):
        for i in range(lo, lo + 50):
            outs[0].send(i)

    with TaskGroup() as g:
        g.spawn(sender, 0)
        g.spawn(sender, 100)
        got = [ins[0].recv() for _ in range(100)]
    conn.close()
    assert sorted(got) == list(range(0, 50)) + list(range(100, 150))
    # per-thread order preserved
    a = [v for v in got if v < 100]
    assert a == sorted(a)


def test_maximal_step_mode_runs():
    conn = maximal_connector("Replicator", 2)
    got = pump(conn, {0: [1]}, {0: 1, 1: 1})
    assert got == {0: [1], 1: [1]}


def test_plan_cache_reused():
    # The interpretive tier's plan cache — force it; under compiled="auto"
    # the generated step functions never touch FiringPlans at fire time.
    conn = compile_source("P(a;b) = Fifo1(a;b)").instantiate_connector(
        "P", compiled="off"
    )
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    for i in range(20):
        outs[0].send(i)
        ins[0].recv()
    assert conn.stats()["plans"] == 2  # push plan + pop plan, compiled once
    conn.close()


def _prefill_sends(engine, backlog):
    """White-box: queue send backlogs directly (the public API parks one OS
    thread per pending op, which would make the schedule nondeterministic).
    The engine is idle here, so touching its queues is safe."""
    from repro.runtime.engine import _Op

    for vertex, values in backlog.items():
        queue = engine._pending_send[vertex]
        region = engine._route[vertex]
        for value in values:
            queue.append(_Op(vertex, value))
        region.pend[vertex] = None
        region.dirty = True


def _prefill_recvs(engine, vertex, count):
    from repro.runtime.engine import _Op

    ops = [_Op(vertex) for _ in range(count)]
    queue = engine._pending_recv[vertex]
    region = engine._route[vertex]
    for op in ops:
        queue.append(op)
    region.pend[vertex] = None
    region.dirty = True
    return ops


# The rr-drift regressions below pin the fix for a fairness bug in the
# candidate scan: the cursor was a single per-region index recomputed as
# ``start + k + 1`` even when candidates between ``start`` and the fired
# one were merely *skipped as momentarily disabled*.  Because the cursor
# was shared across control states whose candidate lists differ in length
# and order, a cycle of states could revisit the exclusive-choice state at
# the same index forever and starve one competing party outright (observed:
# 24/0 splits on EarlyAsyncRouter and LateAsyncMerger, 23/1 on aot
# EarlyAsyncMerger).  The engine now keeps one cursor per control state,
# advanced past the fired candidate, which scans every persistently enabled
# candidate first within n visits of its state.


@pytest.mark.parametrize("composition", ["jit", "aot"])
def test_rr_no_starvation_competing_receivers_exclusive_router(composition):
    """Two competing receivers on an exclusive router: with the producer
    never the bottleneck, both receivers must be served."""
    conn = library.connector("EarlyAsyncRouter", 2, composition=composition)
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    h0, h1 = conn.head_vertices
    ops0 = _prefill_recvs(conn.engine, h0, 60)
    ops1 = _prefill_recvs(conn.engine, h1, 60)
    for i in range(24):
        outs[0].send(i)
    served0 = sum(1 for o in ops0 if o.done)
    served1 = sum(1 for o in ops1 if o.done)
    conn.close()
    assert served0 + served1 == 24
    assert served0 >= 6 and served1 >= 6, (served0, served1)


@pytest.mark.parametrize(
    "name,composition",
    [("EarlyAsyncMerger", "aot"), ("EarlyAsyncMerger", "jit"),
     ("LateAsyncMerger", "aot"), ("LateAsyncMerger", "jit")],
)
def test_rr_no_starvation_competing_senders(name, composition):
    """Two competing senders racing for an exclusive merge: with backlogs
    on both producers, deliveries must interleave, not exhaust one side."""
    conn = library.connector(name, 2, composition=composition)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    v0, v1 = conn.tail_vertices
    _prefill_sends(conn.engine, {v0: ["a"] * 60, v1: ["b"] * 60})
    got = [ins[0].recv() for _ in range(24)]
    conn.close()
    assert "a" in got[:8] and "b" in got[:8], f"one sender starved: {got}"
    assert got.count("a") >= 6 and got.count("b") >= 6, got
