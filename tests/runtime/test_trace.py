"""Trace recording: ordered, observable accounts of protocol runs."""

from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.ports import mkports
from repro.runtime.trace import TraceRecorder

from tests.conftest import pump


def traced_connector(source_or_name, tracer, n=None):
    if n is None:
        return compile_source(source_or_name).instantiate_connector(
            tracer=tracer
        )
    return library.connector(source_or_name, n, tracer=tracer)


def test_records_every_step():
    tracer = TraceRecorder()
    conn = traced_connector("P(a;b) = Fifo1(a;b)", tracer)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    for i in range(3):
        outs[0].send(i)
        assert ins[0].recv() == i
    conn.close()
    assert len(tracer) == conn.steps == 6
    # sequence numbers are strictly increasing
    seqs = [e.seq for e in tracer.events]
    assert seqs == sorted(seqs)


def test_deliveries_recorded():
    tracer = TraceRecorder()
    conn = traced_connector("P(a;b) = Fifo1(a;b)", tracer)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    for v in ("x", "y"):
        outs[0].send(v)
        ins[0].recv()
    conn.close()
    assert tracer.delivered_values(conn.head_vertices[0]) == ["x", "y"]


def test_assert_orders_catches_ex1_property():
    """The running example's 'A before B', asserted on an actual trace."""
    tracer = TraceRecorder()
    conn = traced_connector("SequencedMerger", tracer, n=2)
    pump(conn, {0: ["a0", "a1"], 1: ["b0", "b1"]}, {0: 2, 1: 2})
    t1, t2 = conn.tail_vertices
    tracer.assert_orders([(t1, t2)])  # every round: producer 1 first


def test_assert_orders_detects_violation():
    from repro.runtime.tasks import spawn

    tracer = TraceRecorder()
    conn = traced_connector("Merger", tracer, n=2)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)
    # force producer 2 first (the merger is synchronous: sender and
    # receiver must overlap, so the sends run on their own threads)
    h = spawn(outs[1].send, "b")
    assert ins[0].recv() == "b"
    h.join(5)
    h = spawn(outs[0].send, "a")
    assert ins[0].recv() == "a"
    h.join(5)
    conn.close()
    t1, t2 = conn.tail_vertices
    import pytest

    with pytest.raises(AssertionError, match="ordering violated"):
        tracer.assert_orders([(t1, t2)])


def test_bounded_capacity_drops_oldest():
    tracer = TraceRecorder(capacity=4)
    conn = traced_connector("P(a;b) = Fifo1(a;b)", tracer)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    for i in range(5):
        outs[0].send(i)
        ins[0].recv()
    conn.close()
    assert len(tracer) == 4
    assert tracer.dropped == 6
    assert tracer.events[0].seq == 6  # oldest were dropped


def test_firings_of_filters_by_vertex():
    tracer = TraceRecorder()
    conn = traced_connector("Replicator", tracer, n=2)
    pump(conn, {0: [1]}, {0: 1, 1: 1})
    assert len(tracer.firings_of(conn.tail_vertices[0])) == 1
    assert len(tracer.firings_of("nonexistent")) == 0


def test_rseq_is_per_region_monotonic():
    """``rseq`` restarts at 0 per region and counts contiguously within
    it, independent of the global ``seq`` interleaving (the ordering
    contract the fuzzing oracle's normalization builds on)."""
    tracer = TraceRecorder()
    for region in (0, 1, 0, 2, 1, 0):
        tracer.record(region, frozenset({"v"}), (), (), ())
    by_region = {}
    for ev in tracer.events:
        by_region.setdefault(ev.region, []).append(ev.rseq)
    assert by_region == {0: [0, 1, 2], 1: [0, 1], 2: [0]}


def test_rseq_contiguous_under_regions_engine():
    """Same contract on a real two-region run (two chains, two connected
    components): each region's events carry rseq 0..k-1 in recording
    order."""
    tracer = TraceRecorder()
    conn = compile_source(
        "P(a1,a2;b1,b2) = Fifo1(a1;v) mult Fifo1(v;b1) "
        "mult Fifo1(a2;w) mult Fifo1(w;b2)"
    ).instantiate_connector("P", tracer=tracer, concurrency="regions")
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    for i in range(3):
        outs[i % 2].send(i)
    for i in range(3):
        assert ins[i % 2].recv() == i
    conn.close()
    assert {ev.region for ev in tracer.events} == {0, 1}
    by_region = {}
    for ev in tracer.events:
        by_region.setdefault(ev.region, []).append(ev.rseq)
    for region, rseqs in by_region.items():
        assert rseqs == list(range(len(rseqs))), (region, rseqs)


def test_event_str():
    tracer = TraceRecorder()
    conn = traced_connector("P(a;b) = Fifo1(a;b)", tracer)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    outs[0].send("v")
    ins[0].recv()
    conn.close()
    text = str(tracer.events[-1])
    assert "region0" in text and "{" in text
