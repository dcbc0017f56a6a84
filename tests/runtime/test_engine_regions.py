"""Region-parallel engine: routing, one region per connected component,
wakeup slots, and the recovery/overload cold paths under per-region locking — and under
``concurrency="global"``, the same scheduler with every region sharing one
lock (docs/INTERNALS.md §"Engine concurrency model")."""

import importlib.util
import threading

import pytest

from repro.compiler import compile_source
from repro.compiler.fromgraph import connector_from_graph
from repro.connectors import library
from repro.connectors.graph import Arc, ConnectorGraph
from repro.connectors.library import BuiltConnector
from repro.runtime.buffers import BufferStore
from repro.runtime.engine import CoordinatorEngine
from repro.runtime.ports import mkports
from repro.runtime.tasks import TaskGroup
from repro.util.errors import DeadlockError, ProtocolTimeoutError

OP_TIMEOUT = 5.0


def assert_lock_layout(engine, concurrency):
    locks = {id(r.lock) for r in engine.regions}
    assert len(locks) == (1 if concurrency == "global" else len(engine.regions))


def lanes_connector(k: int, depth: int = 2, **options):
    """One connector holding ``k`` disjoint fifo chains — the canonical
    multi-region workload: one region per lane, its connected component,
    with no shared buffers between lanes at all."""
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
    return connector_from_graph(built, name=f"Lanes{k}", **options)


def test_lanes_partition_into_independent_regions():
    conn = lanes_connector(4)
    outs, ins = mkports(4, 4)
    conn.connect(outs, ins)
    eng = conn.engine
    assert len(eng.regions) == 4
    # Routing table: each lane's boundary vertices resolve to its region,
    # and distinct lanes never share one.
    for lane, r in enumerate(eng.regions):
        assert eng._route[f"l{lane}x0"] is r
        assert eng._route[f"l{lane}x2"] is r
    conn.close()


@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_lanes_pump_concurrently(concurrency):
    """k producer/consumer pairs hammer their own lanes from 2k threads;
    every lane stays FIFO and loses nothing — in both engine modes."""
    k, m = 4, 50
    conn = lanes_connector(k, concurrency=concurrency,
                           default_timeout=OP_TIMEOUT)
    outs, ins = mkports(k, k)
    conn.connect(outs, ins)
    got: dict[int, list] = {i: [] for i in range(k)}

    def producer(i):
        for j in range(m):
            outs[i].send((i, j))

    def consumer(i):
        for _ in range(m):
            got[i].append(ins[i].recv())

    with TaskGroup() as g:
        for i in range(k):
            g.spawn(producer, i)
            g.spawn(consumer, i)
    conn.close()
    for i in range(k):
        assert got[i] == [(i, j) for j in range(m)]


def test_unknown_vertex_rejected_in_region_mode():
    conn = lanes_connector(2)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    with pytest.raises(KeyError):
        conn.engine.post_send("nope", 1)
    conn.close()


def test_timeout_withdraws_and_protocol_survives(concurrency="regions"):
    """A timed-out receive is withdrawn under its region lock; the lane is
    not poisoned for later operations."""
    conn = lanes_connector(2, default_timeout=OP_TIMEOUT,
                           concurrency=concurrency)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    with pytest.raises(ProtocolTimeoutError):
        ins[1].recv(timeout=0.05)
    outs[1].send("late")
    assert ins[1].recv() == "late"
    conn.close()


def test_deadlock_detection_aggregates_across_regions(concurrency="regions"):
    """Registered-party detection must take a consistent snapshot across
    all region locks: two parties blocked on *different* regions of a
    multi-region connector is a real deadlock when nothing is enabled."""
    conn = lanes_connector(2, depth=1, default_timeout=OP_TIMEOUT,
                           concurrency=concurrency)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    ins[0].set_owner(object(), name="r0")
    ins[1].set_owner(object(), name="r1")
    errors = []

    def starved(i):
        try:
            ins[i].recv()
        except Exception as exc:  # noqa: BLE001
            errors.append(exc)

    threads = [threading.Thread(target=starved, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(OP_TIMEOUT)
    assert len(errors) == 2
    assert all(isinstance(e, DeadlockError) for e in errors)
    conn.close()


def test_checkpoint_restore_multi_region():
    """Checkpoint/restore across per-region locks: buffered values and each
    region's control state and fairness cursors survive the round trip."""
    conn = lanes_connector(2, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    outs[0].send("x")
    outs[1].send("y")
    cp = conn.checkpoint()
    assert ins[0].recv() == "x"
    assert ins[1].recv() == "y"
    conn.restore(cp)
    assert ins[0].recv() == "x"
    assert ins[1].recv() == "y"
    conn.close()


def test_concurrency_option_validated():
    with pytest.raises(ValueError):
        lanes_connector(1, concurrency="both")


def _engine(**options):
    return CoordinatorEngine([], BufferStore(), frozenset(), frozenset(),
                             **options)


@pytest.mark.parametrize("build", [
    lambda **o: lanes_connector(1, **o),
    lambda **o: library.connector("Merger", 2, **o),
    _engine,
], ids=["RuntimeConnector", "library.connector", "CoordinatorEngine"])
def test_the_multiprocess_backend_is_refused(build):
    """``concurrency`` has two values (docs/DECISIONS.md row 13); the one
    that selected the removed multiprocess backend is refused where it used
    to be accepted, naming the two that remain."""
    with pytest.raises(ValueError, match="'regions' or 'global'"):
        build(**{"concurrency": "workers"})


def test_the_multiprocess_backend_module_is_gone():
    assert importlib.util.find_spec("repro.runtime.workers") is None


def test_global_mode_stats_and_steps_match_semantics():
    """The one-lock layout is the same engine observable-wise: exact step
    counts, same stats shape."""
    results = {}
    for mode in ("regions", "global"):
        conn = lanes_connector(1, concurrency=mode)
        outs, ins = mkports(1, 1)
        conn.connect(outs, ins)
        for i in range(5):
            outs[0].send(i)
            ins[0].recv()
        results[mode] = (conn.steps, conn.stats()["concurrency"])
        conn.close()
    assert results["regions"][0] == results["global"][0]
    assert results["regions"][1] == "regions"
    assert results["global"][1] == "global"


def test_wakeup_slots_complete_blocked_parties(concurrency="regions"):
    """A blocked submitter parks on its own event; a firing driven by the
    *other* side must wake exactly it (no condvar under either layout)."""
    conn = lanes_connector(1, default_timeout=OP_TIMEOUT,
                           concurrency=concurrency)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    got = []

    t = threading.Thread(target=lambda: got.append(ins[0].recv()))
    t.start()
    # Give the receiver time to park on its wakeup slot.
    import time

    time.sleep(0.05)
    outs[0].send("ping")
    t.join(OP_TIMEOUT)
    assert got == ["ping"]
    conn.close()


def test_leave_reparametrizes_under_region_locking(concurrency="regions"):
    """Re-parametrization swaps the region set; survivors keep working.
    The new region set keeps the lock layout it was built with — under
    ``"global"`` the one group lock is old and new at once."""
    conn = library.connector(
        "Merger", 3, default_timeout=OP_TIMEOUT, concurrency=concurrency,
    )
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    got = []
    t = threading.Thread(target=lambda: got.extend(ins[0].recv() for _ in range(2)))
    t.start()
    outs[0].send("a")
    outs[1].send("b")
    t.join(OP_TIMEOUT)
    old_regions = list(conn.engine.regions)
    conn.leave(outs[2], task="C")
    assert not any(r in old_regions for r in conn.engine.regions)
    assert_lock_layout(conn.engine, concurrency)
    t = threading.Thread(target=lambda: got.append(ins[0].recv()))
    t.start()
    outs[0].send("c")
    t.join(OP_TIMEOUT)
    assert got == ["a", "b", "c"]
    conn.close()


@pytest.mark.parametrize("scenario", [
    test_timeout_withdraws_and_protocol_survives,
    test_deadlock_detection_aggregates_across_regions,
    test_wakeup_slots_complete_blocked_parties,
    test_leave_reparametrizes_under_region_locking,
])
def test_threaded_scenarios_with_one_group_lock(scenario):
    """The multi-region threaded scenarios above, re-run with every region
    sharing one lock: the group lock surviving ``reconfigure`` only shows
    with real threads and more than one region (the fuzz ``global-*`` modes
    drive one thread).  Kept as one
    extra test rather than a ``concurrency`` parameter on each scenario so
    the scenarios keep their established test ids."""
    scenario(concurrency="global")
