"""Concurrency stress: many parties, many messages, no loss/duplication.

These are the suite's 'soak' tests: they hammer the engine lock, the drain
loop, the round-robin fairness cursor, and the JIT cache under real thread
contention, asserting exact message accounting at the end.
"""

import threading
from collections import Counter

import pytest

from repro.connectors import library
from repro.runtime.ports import mkports
from repro.runtime.tasks import TaskGroup

N_PRODUCERS = 8
PER_PRODUCER = 300


def test_merger_no_loss_no_duplication():
    conn = library.connector("Merger", N_PRODUCERS)
    outs, ins = mkports(N_PRODUCERS, 1)
    conn.connect(outs, ins)
    total = N_PRODUCERS * PER_PRODUCER

    def producer(i):
        for k in range(PER_PRODUCER):
            outs[i].send((i, k))

    received: list = []

    def consumer():
        for _ in range(total):
            received.append(ins[0].recv())

    with TaskGroup(join_timeout=120) as g:
        for i in range(N_PRODUCERS):
            g.spawn(producer, i)
        g.spawn(consumer)
    conn.close()

    counts = Counter(received)
    assert len(received) == total
    assert all(v == 1 for v in counts.values())  # no duplication
    # per-producer order preserved
    for i in range(N_PRODUCERS):
        ks = [k for (p, k) in received if p == i]
        assert ks == list(range(PER_PRODUCER))


def test_replicator_consistent_broadcast():
    n_consumers = 6
    rounds = 300
    conn = library.connector("Replicator", n_consumers)
    outs, ins = mkports(1, n_consumers)
    conn.connect(outs, ins)
    got: list[list] = [[] for _ in range(n_consumers)]

    def consumer(i):
        for _ in range(rounds):
            got[i].append(ins[i].recv())

    with TaskGroup(join_timeout=120) as g:
        for i in range(n_consumers):
            g.spawn(consumer, i)
        g.spawn(lambda: [outs[0].send(k) for k in range(rounds)])
    conn.close()

    for i in range(n_consumers):
        assert got[i] == list(range(rounds))


def test_router_conservation_under_contention():
    n_consumers = 6
    total = 1200
    conn = library.connector("Router", n_consumers)
    outs, ins = mkports(1, n_consumers)
    conn.connect(outs, ins)
    received: list = []
    lock = threading.Lock()
    done = threading.Event()

    def consumer(i):
        from repro.util.errors import PortClosedError

        try:
            while True:
                v = ins[i].recv()
                with lock:
                    received.append(v)
                    if len(received) == total:
                        done.set()
        except PortClosedError:
            pass

    with TaskGroup(join_timeout=120) as g:
        for i in range(n_consumers):
            g.spawn(consumer, i)
        g.spawn(lambda: [outs[0].send(k) for k in range(total)]).join(60)
        assert done.wait(30)
        conn.close()

    assert sorted(received) == list(range(total))


def test_sequenced_merger_order_under_contention():
    n = 6
    rounds = 60
    conn = library.connector("SequencedMerger", n)
    outs, ins = mkports(n, n)
    conn.connect(outs, ins)
    order: list = []

    def producer(i):
        for r in range(rounds):
            outs[i].send((i, r))

    def consumer():
        for _ in range(rounds):
            for p in ins:
                order.append(p.recv())

    with TaskGroup(join_timeout=120) as g:
        for i in range(n):
            g.spawn(producer, i)
        g.spawn(consumer)
    conn.close()

    expect = [(i, r) for r in range(rounds) for i in range(n)]
    assert order == expect


@pytest.mark.parametrize("options", [{}, {"composition": "aot"}])
def test_long_fifo_chain_throughput_integrity(options):
    conn = library.connector("FifoChain", 8, **options)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    total = 2000

    with TaskGroup(join_timeout=120) as g:
        g.spawn(lambda: [outs[0].send(k) for k in range(total)])
        h = g.spawn(lambda: [ins[0].recv() for _ in range(total)])
    conn.close()
    assert h.result == list(range(total))
