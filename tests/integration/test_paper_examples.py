"""End-to-end reproductions of the paper's running examples.

Example 1 (§I): "First task A communicates a message to task C, then task B
communicates a message to C" — realized (a) in the basic Foster–Chandy
model with an auxiliary communication (Fig. 2), (b) as a connector built
from the Fig. 5 graph, (c) from the Fig. 8 textual program, (d) from the
parametrized Fig. 9 program at several N, with both compilation approaches.
"""

import threading

import pytest

from repro.compiler import compile_existing, compile_source, run_main
from repro.connectors import library
from repro.compiler.fromgraph import connector_from_graph
from repro.runtime.channels import channel
from repro.runtime.ports import mkports
from repro.runtime.tasks import TaskGroup

from tests.conftest import JOIN_TIMEOUT

FIG8 = """
ConnectorEx11a(tl1,tl2;hd1,hd2) =
  Repl2(tl1;prev1,v1) mult Repl2(tl2;prev2,v2)
  mult Fifo1(v1;w1) mult Fifo1(v2;w2)
  mult Repl2(w1;next1,hd1) mult Repl2(w2;next2,hd2)
  mult Seq2(next1,prev2;) mult Seq2(prev1,next2;)

ConnectorEx11b(tl1,tl2;hd1,hd2) =
  X(tl1;prev1,next1,hd1) mult X(tl2;prev2,next2,hd2)
  mult Seq2(next1,prev2;) mult Seq2(prev1,next2;)

X(tl;prev,next,hd) =
  Repl2(tl;prev,v) mult Fifo1(v;w) mult Repl2(w;next,hd)

main = ConnectorEx11a(aOut,bOut;cIn1,cIn2) among
  Tasks.a(aOut) and Tasks.b(bOut) and Tasks.c(cIn1,cIn2)
"""


def run_ex1_with_connector(conn):
    """Tasks A, B, C of Ex. 3/Fig. 4; returns C's observation order."""
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    events = []

    def a(out):
        out.send("msg-a")

    def b(out):
        out.send("msg-b")

    def c(in1, in2):
        events.append(in1.recv())
        events.append(in2.recv())

    try:
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            g.spawn(a, outs[0])
            g.spawn(b, outs[1])
            g.spawn(c, ins[0], ins[1])
    finally:
        conn.close()
    return events


def test_ex1_fig5_graph():
    built = library.build_graph("SequencedMerger", 2)
    events = run_ex1_with_connector(connector_from_graph(built))
    assert events == ["msg-a", "msg-b"]


def test_ex1_fig8_textual_both_definitions():
    program = compile_source(FIG8)
    for name in ("ConnectorEx11a", "ConnectorEx11b"):
        conn = program.instantiate_connector(name)
        assert run_ex1_with_connector(conn) == ["msg-a", "msg-b"]


def test_ex1_fig8_main():
    events = []

    def a(out):
        out.send("msg-a")

    def b(out):
        out.send("msg-b")

    def c(in1, in2):
        events.append(in1.recv())
        events.append(in2.recv())

    run_main(
        compile_source(FIG8),
        {"Tasks.a": a, "Tasks.b": b, "Tasks.c": c},
    )
    assert events == ["msg-a", "msg-b"]


def test_ex1_no_auxiliary_needed():
    """Point (i) of Ex. 3: B's send blocks until A's delivery completed —
    without any auxiliary communication in the tasks."""
    conn = compile_source(FIG8).instantiate_connector("ConnectorEx11a")
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    assert not outs[1].try_send("msg-b")  # B cannot go first
    outs[0].send("msg-a")
    assert not outs[1].try_send("msg-b")  # nor before C received A's msg
    assert ins[0].recv() == "msg-a"
    outs[1].send("msg-b")
    assert ins[1].recv() == "msg-b"
    conn.close()


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("approach", ["new-jit", "new-aot", "existing",
                                      "uncompiled"])
def test_ex8_fig9_all_approaches(fig9_source, n, approach):
    """Ex. 8: the parametrized running example under every strategy."""
    if approach == "existing":
        conn = compile_existing(
            fig9_source, "ConnectorEx11N", sizes=n
        ).instantiate_connector()
    else:
        options = {
            "new-jit": {},
            "new-aot": {"composition": "aot"},
            "uncompiled": {"compiled": "off"},
        }[approach]
        conn = compile_source(fig9_source).instantiate_connector(
            "ConnectorEx11N", sizes=n, **options
        )
    outs, ins = mkports(n, n)
    conn.connect(outs, ins)
    rounds = 2
    order = []

    def pro(i, out):
        for r in range(rounds):
            out.send((i, r))

    def con():
        for r in range(rounds):
            for p in ins:
                order.append(p.recv())

    try:
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for i, out in enumerate(outs, 1):
                g.spawn(pro, i, out)
            g.spawn(con)
    finally:
        conn.close()
    assert order == [(i, r) for r in range(rounds) for i in range(1, n + 1)]


def test_fig2_channel_version_needs_auxiliary():
    """Ex. 2 (Fig. 2): in the basic model the ordering holds only via the
    auxiliary channel; dropping it can violate Ex. 1 (B may arrive first) —
    here we check the *with-auxiliary* version enforces it."""
    ao, ci1 = channel()
    bo, ci2 = channel()
    x, y = channel()
    events = []
    barrier = threading.Barrier(2)  # A and B start together

    def a(out):
        barrier.wait()
        out.send("msg-a")

    def b(y_in, out):
        barrier.wait()
        y_in.recv()
        out.send("msg-b")

    def c(in1, in2, x_out):
        events.append(in1.recv())
        x_out.send(0)
        events.append(in2.recv())

    with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
        g.spawn(a, ao)
        g.spawn(b, y, bo)
        g.spawn(c, ci1, ci2, x)
    assert events == ["msg-a", "msg-b"]
