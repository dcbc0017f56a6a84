"""Shared test helpers.

Most protocol tests follow one pattern: build a connector, attach trivial
producer/consumer tasks, run them with a timeout (so a protocol bug fails
the test instead of hanging the suite), and assert on what the consumers
received.  :func:`pump` packages that pattern.
"""

from __future__ import annotations

import pytest

from repro.runtime.ports import mkports
from repro.runtime.tasks import TaskGroup

JOIN_TIMEOUT = 30.0


def pump(conn, sends: dict[int, list], recv_counts: dict[int, int],
         timeout: float = JOIN_TIMEOUT):
    """Drive ``conn`` with one sender per entry of ``sends`` (outport index →
    values to send) and one receiver per entry of ``recv_counts`` (inport
    index → number of messages to receive).  Returns {inport index:
    received list}.  Ports not mentioned stay idle."""
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    received: dict[int, list] = {}

    def sender(port, values):
        for v in values:
            port.send(v)

    def receiver(idx, port, count):
        received[idx] = [port.recv() for _ in range(count)]

    try:
        with TaskGroup(join_timeout=timeout) as group:
            for idx, values in sends.items():
                group.spawn(sender, outs[idx], values, name=f"send{idx}")
            for idx, count in recv_counts.items():
                group.spawn(receiver, idx, ins[idx], count, name=f"recv{idx}")
    finally:
        conn.close()
    return received


def maximal_connector(name: str, n: int):
    """Library connector ``name``/``n`` on its textbook maximal product
    (every joint firing of independent transitions), composed at the
    product level and handed to a connector as its one automaton."""
    from repro.automata.product import product
    from repro.connectors import library
    from repro.runtime.connector import RuntimeConnector

    conn = library.connector(name, n)
    return RuntimeConnector(
        [product(conn.automata, mode="maximal", name=conn.name)],
        conn.tail_vertices, conn.head_vertices, name=conn.name)


@pytest.fixture
def fig9_source() -> str:
    """The paper's Fig. 9 program (running example, parametrized)."""
    return """
X(tl;prev,next,hd) =
  Repl2(tl;prev,v) mult Fifo1(v;w) mult Repl2(w;next,hd)

ConnectorEx11N(tl[];hd[]) =
  if (#tl == 1) {
    Fifo1(tl[1];hd[1])
  } else {
    prod (i:1..#tl) X(tl[i];prev[i],next[i],hd[i])
    mult prod (i:1..#tl-1) Seq2(next[i],prev[i+1];)
    mult Seq2(prev[1],next[#tl];)
  }

main(N) = ConnectorEx11N(out[1..N];in[1..N]) among
  forall (i:1..N) Tasks.pro(out[i]) and Tasks.con(in[1..N])
"""
