"""A port resolves its vertex once, at connect, and submits through that
binding (docs/DECISIONS.md row 14).

A binding holds the vertex's queue, its owner region and its overload
policy; it is valid while its epoch equals the engine's, which every region
re-adoption bumps.  Each admin operation below is run mid-traffic — more
party threads than the two cores, the interpreter switching every 10 µs —
and afterwards every port either talks to the vertex's current owner or
raises the error that operation documents.  The threaded scenarios are
followed by the deterministic pins: a superseded binding reaches the new
region, an unobserved operation reads no clock, a park stamps its op, and
the timed and per-call-policy paths are the one prologue.
"""

import sys
import threading
import time

import pytest

from repro.connectors import library
from repro.runtime.engine import CoordinatorEngine, _Op
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import mkports
from repro.runtime.tasks import spawn
from repro.util.errors import (
    CheckpointError,
    PortClosedError,
    RuntimeProtocolError,
)

pytestmark = pytest.mark.fault_stress

JOIN = 30.0
PER_PRODUCER = 300
BACKENDS = ["regions", "global"]


@pytest.fixture
def switch_often():
    """Switch threads every 10 µs for the length of the test."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        yield
    finally:
        sys.setswitchinterval(interval)


def wired(name, n, **options):
    conn = library.connector(name, n, **options)
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    return conn, outs, ins


def assert_current(conn, ports):
    """Every usable port holds the current binding of its vertex."""
    engine = conn.engine
    for p in ports:
        if not p.closed:
            assert p._bound is engine.binding(p._vertex), p.name


class Traffic:
    """One producer thread per outport sending ``(index, k)`` for k = 0, 1,
    …, and one consumer collecting; each producer stops at its quota or at
    the first PortClosedError, which it keeps."""

    def __init__(self, outs, inport, quota=PER_PRODUCER):
        self.got: list = []
        self.sent = [0] * len(outs)
        self.ended: dict = {}
        self.producers = [spawn(self._produce, i, p, quota)
                          for i, p in enumerate(outs)]
        self.consumer = spawn(self._consume, inport)

    def _produce(self, i, port, quota):
        try:
            for k in range(quota):
                port.send((i, k))
                self.sent[i] += 1
        except PortClosedError as exc:
            self.ended[i] = exc

    def _consume(self, inport):
        try:
            while True:
                self.got.append(inport.recv())
        except PortClosedError as exc:
            self.ended["consumer"] = exc

    def wait_for(self, count):
        deadline = time.monotonic() + JOIN
        while len(self.got) < count:
            assert time.monotonic() < deadline, (len(self.got), count)
            time.sleep(0.001)

    def join_producers(self):
        for h in self.producers:
            h.join(JOIN)

    def finish(self, conn):
        """Close once every producer returned; the consumer then raises
        PortClosedError with everything delivered already collected."""
        self.join_producers()
        conn.close()
        self.consumer.join(JOIN)
        assert isinstance(self.ended["consumer"], PortClosedError)

    def by_producer(self):
        out: dict = {}
        for i, k in self.got:
            out.setdefault(i, []).append(k)
        return out


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_a_renamed_survivor_talks_to_its_new_vertex(concurrency, switch_often):
    """Merger/4, four producers and a consumer: party 1 leaves mid-traffic,
    so parties 2 and 3 are renamed one index down.  Their ports — and any
    op they had in flight through the superseded binding — land on the
    renamed vertices of the new region: every survivor value arrives once,
    in order, and the engine counted one step for each (a step fired by a
    replaced region would go uncounted)."""
    conn, outs, (inp,) = wired("Merger", 4, concurrency=concurrency)
    traffic = Traffic(outs, inp)
    traffic.wait_for(100)
    epoch = conn.engine._epoch
    report = conn.leave(outs[1])
    assert report.vertex_map == {"t@1": "t@1", "t@3": "t@2", "t@4": "t@3",
                                 "h": "h"}
    assert [p._vertex for p in outs] == ["t@1", "t@2", "t@2", "t@3"]
    assert conn.engine._epoch == epoch + 1
    assert_current(conn, outs)
    traffic.join_producers()
    assert isinstance(traffic.ended.pop(1), PortClosedError)
    assert not traffic.ended
    steps = conn.steps
    traffic.finish(conn)
    got = traffic.by_producer()
    for i in (0, 2, 3):
        assert got[i] == list(range(PER_PRODUCER)), i
    assert got.get(1, []) == list(range(len(got.get(1, []))))
    assert steps == len(traffic.got)
    with pytest.raises(PortClosedError, match="is closed"):
        outs[1].send("late")


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_ports_follow_repeated_reconfigures(concurrency, switch_often):
    """The engine is re-adopted five times mid-traffic at the same arity,
    with nobody rebinding the ports: each call follows its superseded
    binding's successors to the current region."""
    conn, outs, (inp,) = wired("Merger", 4, concurrency=concurrency)
    engine = conn.engine
    bound = [p._bound for p in outs] + [inp._bound]
    sources, sinks = engine.sources, engine.sinks
    identity = {v: v for v in sources | sinks}
    traffic = Traffic(outs, inp)
    for round_ in range(5):
        traffic.wait_for(100 * (round_ + 1))
        regions, store = conn._build_regions(conn.automata, sources, sinks)
        engine.reconfigure(regions, store, sources, sinks, identity)
    assert [p._bound for p in outs] + [inp._bound] == bound  # never rebound
    assert all(b.epoch < engine._epoch for b in bound)
    traffic.join_producers()
    assert not traffic.ended
    steps = conn.steps
    traffic.finish(conn)
    got = traffic.by_producer()
    assert got == {i: list(range(PER_PRODUCER)) for i in range(4)}
    assert steps == len(traffic.got)


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_ports_survive_restores_between_rounds(concurrency, switch_often):
    """Rounds of traffic with a checkpoint/restore at each quiescent point
    between them, and attempts during the rounds, which may only raise
    CheckpointError.  A restore re-adopts nothing: the bindings stay the
    current ones and the next round flows."""
    conn, outs, (inp,) = wired("Merger", 4, concurrency=concurrency)
    rounds, per_round = 6, 20
    gate = threading.Barrier(len(outs) + 2)
    got = []

    def produce(i):
        for r in range(rounds):
            for k in range(per_round):
                outs[i].send((i, r * per_round + k))
            gate.wait(JOIN)
            gate.wait(JOIN)

    def consume():
        for _ in range(rounds):
            got.extend(inp.recv() for _ in range(len(outs) * per_round))
            gate.wait(JOIN)
            gate.wait(JOIN)

    tasks = [spawn(produce, i) for i in range(len(outs))] + [spawn(consume)]
    epoch, refused = conn.engine._epoch, 0
    for _ in range(rounds):
        deadline = time.monotonic() + JOIN
        while gate.n_waiting < len(outs) + 1:
            assert time.monotonic() < deadline, gate.n_waiting
            try:
                conn.restore(conn.checkpoint())
            except CheckpointError:
                refused += 1
        gate.wait(JOIN)
        conn.restore(conn.checkpoint())  # quiescent: nothing pending
        assert conn.engine._epoch == epoch
        assert_current(conn, outs + [inp])
        gate.wait(JOIN)
    for t in tasks:
        t.join(JOIN)
    assert refused
    for i in range(len(outs)):
        assert [k for j, k in got if j == i] == list(range(rounds * per_round))
    conn.close()


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_close_vertex_then_drain_then_close(concurrency, switch_often):
    """EarlyAsyncMerger/4 mid-traffic: closing one producer's vertex stops
    that producer with PortClosedError; ``begin_drain`` then stops the rest
    the same way while the consumer flushes the buffers; ``close`` stops the
    consumer.  Every send that returned was delivered once, in order."""
    conn, outs, (inp,) = wired("EarlyAsyncMerger", 4, concurrency=concurrency)
    traffic = Traffic(outs, inp, quota=10**9)
    traffic.wait_for(100)
    conn.engine.close_vertex(outs[3]._vertex)
    traffic.producers[3].join(JOIN)
    assert "closed" in str(traffic.ended[3])
    traffic.wait_for(len(traffic.got) + 100)  # the others keep going
    conn.engine.begin_drain()
    traffic.join_producers()
    for i in range(3):
        assert "draining" in str(traffic.ended[i]), i
    deadline = time.monotonic() + JOIN
    while not conn.engine.drained:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    traffic.finish(conn)
    got = traffic.by_producer()
    for i in range(4):
        assert got.get(i, []) == list(range(traffic.sent[i])), i
    for p in outs + [inp]:
        with pytest.raises(PortClosedError):
            p.try_send(0) if p in outs else p.try_recv()


def test_a_superseded_binding_reaches_the_new_region():
    """Deterministic: a port bound before ``reconfigure`` sends into the
    *new* buffers (a post on the new binding receives it), and a binding
    whose vertex left raises PortClosedError naming the departure."""
    conn, outs, ins = wired("EarlyAsyncMerger", 2)
    engine = conn.engine
    stale = outs[0]._bound
    sources, sinks = engine.sources, engine.sinks
    regions, store = conn._build_regions(conn.automata, sources, sinks)
    engine.reconfigure(regions, store, sources, sinks,
                       {v: v for v in sources | sinks})
    assert outs[0]._bound is stale and stale.successor is engine.binding("t@1")
    outs[0].send("new")
    assert engine.buffered_total() == 1 and store is engine.buffers
    op = engine.post_recv(conn.head_vertices[0])
    assert op.done and op.value == "new"
    assert ins[0].try_recv() == (False, None)
    assert regions[0].fired >= 2 and engine.steps == regions[0].fired

    conn2, outs2, ins2 = wired("Merger", 3)
    departed = outs2[1]._bound
    conn2.leave(outs2[1])
    with pytest.raises(PortClosedError, match="left the protocol signature"):
        conn2.engine.try_submit(departed, "x")
    with pytest.raises(PortClosedError, match="is closed"):
        outs2[1].try_send("x")
    conn.close()
    conn2.close()


def test_an_unbound_port_says_so():
    outs, _ = mkports(1, 0)
    with pytest.raises(RuntimeProtocolError, match="not connected"):
        outs[0].send(1)
    outs[0].close()
    with pytest.raises(RuntimeProtocolError, match="not connected"):
        outs[0].send(1)


def test_an_unobserved_untimed_pair_reads_no_clock(monkeypatch):
    """One-region connector, no metrics, tracer or parties, no timeout: a
    send + recv that neither parks makes zero ``time.monotonic`` calls."""
    conn, outs, ins = wired("EarlyAsyncMerger", 2)
    assert len(conn.engine.regions) == 1
    calls = []
    clock = time.monotonic
    monkeypatch.setattr(time, "monotonic", lambda: calls.append(1) or clock())
    for k in range(100):
        outs[k % 2].send(k)
        assert ins[0].recv() == k
        assert ins[0].try_recv() == (False, None)
    monkeypatch.undo()
    assert calls == []
    assert conn.stats()["parks"] == 0
    conn.close()


def test_an_op_parked_before_register_party_has_a_real_wait():
    """A receive parks unobserved; a party registered afterwards sees how
    long it has waited, not the clock's epoch."""
    conn, outs, (inp,) = wired("Merger", 2)
    t0 = time.monotonic()
    h = spawn(inp.recv)
    deadline = t0 + JOIN
    while conn.stats()["blocked"] < 1:
        assert time.monotonic() < deadline
        time.sleep(0.001)
    time.sleep(0.02)
    conn.engine.register_party("late", name="late", vertex=inp._vertex)
    (row,), _ = conn.engine.party_progress()
    assert row["pending"] == 1
    assert 0.02 <= row["waited"] <= time.monotonic() - t0
    outs[0].send("v")
    assert h.join(JOIN) == "v"
    conn.close()


def test_the_op_has_no_step_stamp():
    assert "steps_enq" not in _Op.__slots__
    assert set(_Op.__slots__) == {"vertex", "value", "done", "error",
                                  "t_enq", "event"}


@pytest.mark.parametrize("concurrency", BACKENDS)
def test_timed_and_shed_sends_share_the_prologue(concurrency):
    """Sends a ``shed_newest`` connector sheds, with and without a timeout,
    and a timeout racing a firing: every one enters ``_enqueue``
    (``submit`` is the prologue itself) with the binding the port resolved
    at connect."""
    assert CoordinatorEngine.submit is CoordinatorEngine._enqueue
    shedding, souts, _ = wired(
        "Merger", 2, concurrency=concurrency,
        overload=OverloadPolicy("shed_newest", max_pending=0))
    conn, outs, (inp,) = wired("Merger", 2, concurrency=concurrency)
    engine = conn.engine
    entered = []
    for e in (shedding.engine, engine):
        def spy(b, *args, prologue=e._enqueue):
            entered.append(b)
            return prologue(b, *args)

        e.submit = spy
    souts[0].send("shed")
    souts[1].send("shed-timed", timeout=5.0)
    assert [d.value for d in shedding.dead_letters()] == ["shed", "shed-timed"]
    assert shedding.stats()["parks"] == 0
    assert shedding.engine._pending_count() == 0

    withdraw, answers = engine._withdraw_expired, []

    def fire_first(binding, op):
        if not answers:
            engine.post_recv(conn.head_vertices[0])
        answers.append(withdraw(binding, op))
        return answers[-1]

    engine._withdraw_expired = fire_first
    outs[0].send("just in time", timeout=0.05)
    assert answers == [False] and conn.steps == 1
    assert entered == [souts[0]._bound, souts[1]._bound, outs[0]._bound]
    conn.close()
    shedding.close()
