"""Cross-validation: DSL-compiled connectors vs. direct graph builders.

The DSL sources encode n-ary routing as chains of binary primitives; these
tests check the *observable protocol* is the same as the direct n-ary
builders', across compilation/execution strategies.
"""

import pytest

from repro.connectors import library
from repro.runtime.ports import mkports

from tests.conftest import pump


@pytest.mark.parametrize("name", library.names())
@pytest.mark.parametrize("n", [1, 3])
def test_dsl_compiles_and_matches_arity(name, n):
    built = library.build_graph(name, n)
    conn = library.connector(name, n)
    assert len(conn.tail_vertices) == len(built.tails)
    assert len(conn.head_vertices) == len(built.heads)
    conn.close()


@pytest.mark.parametrize("options", [
    {},  # new approach, JIT (default)
    {"composition": "aot"},  # new approach, ahead-of-time
    {"concurrency": "global"},  # every region under one group lock
])
def test_merger_equivalence(options):
    c = library.connector("Merger", 3, **options)
    got = pump(c, {0: ["a"], 1: ["b"], 2: ["c"]}, {0: 3})
    assert sorted(got[0]) == ["a", "b", "c"]


@pytest.mark.parametrize("options", [
    {},
    {"composition": "aot"},
    {"concurrency": "global"},
])
def test_replicator_equivalence(options):
    c = library.connector("Replicator", 3, **options)
    got = pump(c, {0: [1, 2]}, {0: 2, 1: 2, 2: 2})
    assert got[0] == got[1] == got[2] == [1, 2]


def test_router_covers_all_consumers_eventually():
    """The binary router chain must reach every head (exclusively)."""
    import queue

    from repro.runtime.tasks import TaskGroup
    from repro.util.errors import PortClosedError

    c = library.connector("Router", 4)
    outs, ins = mkports(1, 4)
    c.connect(outs, ins)
    got = queue.SimpleQueue()

    def consumer(i, p):
        try:
            while True:
                got.put((i, p.recv()))
        except PortClosedError:
            pass

    with TaskGroup() as g:
        for i, p in enumerate(ins):
            g.spawn(consumer, i, p)
        g.spawn(lambda: [outs[0].send(k) for k in range(40)]).join()
        import time

        time.sleep(0.2)
        c.close()
    items = []
    while not got.empty():
        items.append(got.get())
    assert sorted(v for _, v in items) == list(range(40))


def test_sequencer_dsl_turns():
    c = library.connector("Sequencer", 3)
    outs, _ = mkports(3, 0)
    c.connect(outs, [])
    for turn in range(3):
        for i, o in enumerate(outs):
            ok = o.try_send("x")
            assert ok == (i == turn)
            if ok:
                break
    c.close()


def test_out_sequencer_dsl_round_robin():
    c = library.connector("OutSequencer", 3)
    got = pump(c, {0: list(range(6))}, {0: 2, 1: 2, 2: 2})
    assert got == {0: [0, 3], 1: [1, 4], 2: [2, 5]}


def test_alternator_dsl_round_robin():
    c = library.connector("Alternator", 3)
    got = pump(c, {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]}, {0: 6})
    assert got[0] == ["a0", "b0", "c0", "a1", "b1", "c1"]


def test_barrier_dsl_lock_step():
    c = library.connector("Barrier", 2)
    got = pump(c, {0: ["a0", "a1"], 1: ["b0", "b1"]}, {0: 2, 1: 2})
    assert got[0] == ["a0", "a1"] and got[1] == ["b0", "b1"]


def test_lock_dsl_mutual_exclusion():
    import threading

    from repro.runtime.tasks import TaskGroup

    n = 2
    c = library.connector("Lock", n)
    outs, _ = mkports(2 * n, 0)
    c.connect(outs, [])
    acquires, releases = outs[:n], outs[n:]
    inside = []
    bad = []
    lk = threading.Lock()

    def client(i):
        for _ in range(15):
            acquires[i].send("acq")
            with lk:
                inside.append(i)
                if len(inside) > 1:
                    bad.append(list(inside))
                inside.remove(i)
            releases[i].send("rel")

    with TaskGroup() as g:
        for i in range(n):
            g.spawn(client, i)
    c.close()
    assert not bad


def test_sequenced_merger_dsl_matches_fig9_semantics():
    c = library.connector("SequencedMerger", 3)
    got = pump(
        c,
        {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]},
        {0: 2, 1: 2, 2: 2},
    )
    assert got == {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]}


def test_fifo_chain_dsl_capacity():
    c = library.connector("FifoChain", 3)
    outs, ins = mkports(1, 1)
    c.connect(outs, ins)
    for k in range(3):
        assert outs[0].try_send(k)
    assert not outs[0].try_send(99)
    assert [ins[0].recv() for _ in range(3)] == [0, 1, 2]
    c.close()


def test_early_async_variants_dsl():
    c = library.connector("EarlyAsyncMerger", 2)
    outs, ins = mkports(2, 1)
    c.connect(outs, ins)
    outs[0].send("x")  # decoupled: completes into the per-producer buffer
    outs[1].send("y")
    assert {ins[0].recv(), ins[0].recv()} == {"x", "y"}
    c.close()


def test_dsl_source_text_available():
    for name in library.names():
        src = library.dsl_source(name, 4)
        assert name.split("$")[0] in src


def test_fifochain_source_requires_n():
    with pytest.raises(ValueError):
        library.dsl_source("FifoChain")
