"""What a warm drain touches: per-state rows, successor links, in-row
cursors and the posted-vertex hint (docs/COMPILER.md §4, INTERNALS §3/§4).

Structural and deterministic — calls are counted, nothing is timed.  A
connector is driven lock-step through ``engine.post_recv``/``post_send``
(heads first, then tails, at most one outstanding operation per vertex),
the schedule of ``benchmarks/suite/lockstep_posted.py``.
"""

import gc
import threading
import weakref

import pytest

from repro.automata.automaton import ConstraintAutomaton, Transition
from repro.automata.constraint import App, Eq, FunctionRegistry, Pred, V
from repro.automata.lazy import LRUCache
from repro.connectors import library
from repro.runtime.connector import RuntimeConnector
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import mkports
from repro.runtime.tasks import spawn
from repro.util.errors import ProtocolTimeoutError

WARMUP, ROUNDS = 32, 200


def connected(name, n, **options):
    conn = library.connector(name, n, **options)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    return conn


class Lockstep:
    """The lock-step posted driver; ``rounds`` returns the posts it made."""

    def __init__(self, conn):
        self.engine = conn.engine
        self.heads, self.tails = conn.head_vertices, conn.tail_vertices
        self.handles = dict.fromkeys(self.heads + self.tails)
        self.sent = 0

    def rounds(self, count):
        engine, handles, posts = self.engine, self.handles, 0
        for _ in range(count):
            for v in self.heads:
                if handles[v] is None or handles[v].done:
                    handles[v] = engine.post_recv(v)
                    posts += 1
            for v in self.tails:
                if handles[v] is None or handles[v].done:
                    handles[v] = engine.post_send(v, self.sent)
                    self.sent += 1
                    posts += 1
        return posts


class CountingDict(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.gets, self.sets = 0, {}

    def get(self, key, default=None):
        self.gets += 1
        return super().get(key, default)

    def __setitem__(self, key, value):
        self.sets[key] = self.sets.get(key, 0) + 1
        super().__setitem__(key, value)


class Probe:
    """Counts what the drain loop does on ``conn``'s one region: table
    lookups, cursor-table reads and writes, and ``fire`` calls."""

    def __init__(self, conn):
        (self.region,) = conn.engine.regions
        region = self.region
        region.cursors = CountingDict(region.cursors)
        self.lookups = self.fires = 0
        lookup = region.table.get

        def counted_lookup(state):
            self.lookups += 1
            return lookup(state)

        region.table.get = counted_lookup  # the state cache, an instance
        self.wrapped = set()

    def wrap_fires(self):
        """Wrap every step compiled so far (again after warm-up: states
        compile as they are met)."""
        for _, row in self.region.table.items():
            for e in row.entries:
                if id(e) not in self.wrapped:
                    self.wrapped.add(id(e))
                    e.fire = self.counted(e.fire)

    def counted(self, fire):
        def counted_fire(pending, obs):
            self.fires += 1
            return fire(pending, obs)
        return counted_fire

    def reset(self):
        self.lookups = self.fires = self.region.cursors.gets = 0


# -- a warm drain hashes no control state -----------------------------------


@pytest.mark.parametrize("name", ["Sequencer", "SequencedMerger", "Barrier",
                                  "Replicator"])
def test_a_warm_lockstep_schedule_looks_nothing_up(name):
    conn = connected(name, 16)
    probe, drive = Probe(conn), Lockstep(conn)
    drive.rounds(WARMUP)
    probe.wrap_fires()
    probe.reset()
    steps = conn.engine.steps
    posts = drive.rounds(ROUNDS)
    steps = conn.engine.steps - steps
    region = probe.region
    assert steps >= ROUNDS
    assert (probe.lookups, region.cursors.gets) == (0, 0)
    # A one-candidate state's cursor is 0 for ever: written once.
    single = {s for s, row in region.table.items() if len(row.entries) == 1}
    assert single and all(region.cursors.sets.get(s, 0) <= 1 for s in single)
    assert region.cursors == {s: 0 for s in region.cursors}
    assert all(row.by_vertex is not None and None not in row.links
               for _, row in region.table.items())
    if name in ("Barrier", "Replicator"):
        # 32 (17) posts make a step; only the one completing it probes a
        # candidate — which fires — and then finds the next state quiescent.
        assert posts == steps * len(drive.handles)
        assert probe.fires == 2 * steps
    conn.close()


def test_a_post_no_candidate_names_probes_nothing():
    """EarlyAsyncMerger/16 with every fifo full: no candidate of that state
    names a tail, so a send posted there calls no step function."""
    conn = connected("EarlyAsyncMerger", 16)
    engine, (head,) = conn.engine, conn.head_vertices
    probe = Probe(conn)
    for lap in range(2):  # the second lap revisits every state: indexed
        for i, v in enumerate(conn.tail_vertices):
            assert engine.post_send(v, (lap, i)).done
        if lap == 0:
            for _ in conn.tail_vertices:
                assert engine.post_recv(head).done
    probe.wrap_fires()
    probe.reset()
    late = engine.post_send(conn.tail_vertices[3], "late")
    assert not late.done and probe.fires == 0 and probe.lookups == 0
    got = [engine.post_recv(head) for _ in range(17)]
    assert all(op.done for op in got) and late.done
    assert sorted(op.value for op in got if op.value != "late") == [
        (1, i) for i in range(16)]
    conn.close()


# -- a bounded table keeps no reference outside itself ----------------------


def test_a_bounded_table_stores_no_link_and_lets_evicted_rows_die():
    conn = connected("Sequencer", 16, cache_factory=lambda: LRUCache(4))
    (region,) = conn.engine.regions
    cache, drive = region.table, Lockstep(conn)
    assert region.compiled and not region.links
    drive.rounds(WARMUP)
    ref = weakref.ref(next(row for _, row in cache.items()))
    gc.disable()  # by reference count: nothing outside the table holds it
    try:
        drive.rounds(ROUNDS)  # 16 states take turns in 4 places
        assert ref() is None
    finally:
        gc.enable()
    assert region.row is None
    assert all(row.by_vertex is None and set(row.links) == {None}
               for _, row in cache.items())
    assert len(cache) == 4
    # One table read per drain iteration, as before rows: the counts of the
    # same schedule at commit dd05988, less the one miss and one hit of the
    # initial state (the lazy product stores it without probing, and
    # connect builds its row from that expansion, not from a table read).
    assert (cache.hits, cache.misses, cache.evictions) == (3713, 3712, 3709)
    assert conn.stats()["expansions"] == 3713
    conn.close()


# -- whatever changes what is enabled, other than a post, sets ``dirty`` ----


def guarded(concurrency, *, extra=(), registry=None, **options):
    """One state, one transition ``{a, b}`` passing ``a``'s value to ``b``
    when the registered predicate ``ok`` holds of it — and no complement:
    a head that fails the guard just sits there."""
    if registry is None:
        registry = FunctionRegistry()
        registry.register_predicate("ok", lambda v: v == "good")
    guard = Transition(0, frozenset("ab"), 0,
                       (Pred("ok", V("a")), Eq(V("b"), V("a"))))
    automaton = ConstraintAutomaton(
        1, 0, frozenset("abc"), (guard, *extra), name="guarded")
    conn = RuntimeConnector(
        [automaton], ["a", "c"] if extra else ["a"], ["b"],
        registry=registry, concurrency=concurrency, **options)
    outs, ins = mkports(len(conn.tail_vertices), 1, prefix="p")
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == 1
    return conn, outs, ins


@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_withdrawing_the_head_lets_the_value_behind_it_fire(concurrency):
    conn, outs, _ = guarded(concurrency)
    engine = conn.engine

    def gives_up():
        with pytest.raises(ProtocolTimeoutError):
            outs[0].send("bad", timeout=0.3)
        return True

    sender = spawn(gives_up)
    while not conn.stats()["blocked"]:
        pass
    good = engine.post_send("a", "good")
    got = engine.post_recv("b")
    assert not good.done and not got.done  # ``bad`` is the head
    assert sender.join(20.0)  # … until its sender times out: no post since
    assert good.done and got.done and got.value == "good"
    conn.close()


@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_shedding_the_newest_leaves_the_head_in_place(concurrency):
    """A shed pops the queue's tail: the head that blocks the region and
    the value queued behind it stay, and fire once the head withdraws."""
    conn, outs, _ = guarded(
        concurrency, overload=OverloadPolicy("shed_newest", max_pending=2))
    engine = conn.engine

    def gives_up():
        with pytest.raises(ProtocolTimeoutError):
            outs[0].send("bad", timeout=0.3)
        return True

    sender = spawn(gives_up)
    while not conn.stats()["blocked"]:
        pass
    good = engine.post_send("a", "good")
    late = engine.post_send("a", "late")  # over the bound: ``late`` is shed
    got = engine.post_recv("b")
    assert late.done and [d.value for d in conn.dead_letters()] == ["late"]
    assert not good.done and not got.done  # ``bad`` is still the head
    assert sender.join(20.0)
    assert good.done and got.done and got.value == "good"
    conn.close()


@pytest.mark.parametrize("composition", ["jit", "aot"])
def test_a_drain_left_by_exception_leaves_the_region_dirty(composition):
    """A registered function raises inside an emitted step: the drain had
    cleared ``dirty`` and never reached quiescence.  The candidate it was
    probing is enabled now; the next post is on a vertex that candidate
    does not name, and must still find it."""
    calls = []

    def once(v):
        calls.append(v)
        if len(calls) == 1:
            raise RuntimeError("first call")
        return v * 2

    registry = FunctionRegistry()
    registry.register_function("once", once)
    registry.register_predicate("ok", lambda v: True)
    doubling = Transition(0, frozenset("ab"), 0,
                          (Eq(V("b"), App("once", V("a"))),))
    conn = RuntimeConnector(
        [ConstraintAutomaton(
            1, 0, frozenset("abc"),
            (doubling, Transition(0, frozenset("c"), 0)), name="raising")],
        ["a", "c"], ["b"], registry=registry, composition=composition)
    conn.connect(*mkports(2, 1))
    assert conn.stats()["compiled_regions"] == 1
    engine = conn.engine
    for i in range(3):  # revisit the state: indexed, hint in use
        assert engine.post_send("c", i).done
    (region,) = engine.regions
    assert region.row is not None and region.row.by_vertex is not None
    got = engine.post_recv("b")
    with pytest.raises(RuntimeError, match="first call"):
        engine.post_send("a", 21)
    assert region.dirty and not got.done
    assert engine.post_send("c", 3).done
    assert got.done and got.value == 42 and not region.dirty
    conn.close()


# -- a watcher signal racing the hinted scan ---------------------------------


@pytest.mark.fault_stress
@pytest.mark.parametrize("concurrency", ["regions", "global"])
def test_a_signal_racing_the_hinted_scan_is_not_lost(concurrency):
    """Two fifos into one consumer region with two heads.  The producer
    side of the first signals that region by setting its ``dirty`` without
    its lock; a receive tried meanwhile on the *other* head scans only the
    candidates naming that head — which do not look at the fifo just filled
    — and must leave the flag as it finds it, or the chaser skips the region
    and the value sits in its fifo with a receiver parked in front of it.
    Nothing ever fires through the second head, so no later full scan would
    heal a lost signal.  Four threads on two cores, switching every 10 µs."""
    import sys

    from repro.connectors.graph import Arc
    from repro.connectors.primitives import build_automaton

    rounds = 3_000
    free = ConstraintAutomaton(  # puts b1 and b2 in one region, no more
        1, 0, frozenset(("b1", "b2")),
        tuple(Transition(0, frozenset((b,)), 0) for b in ("b1", "b2")))
    conn = RuntimeConnector(
        [build_automaton(Arc("fifo1", ("a1",), ("b1",), ()), "q1"),
         build_automaton(Arc("fifo1", ("a2",), ("b2",), ()), "q2"), free],
        ["a1", "a2"], ["b1", "b2"], use_partitioning=True,
        concurrency=concurrency, default_timeout=10.0)
    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == 3
    consumer = conn.engine._route["b1"]
    assert len(conn.engine.regions) == 3
    assert consumer is conn.engine._route["b2"]
    assert set(conn.engine._watchers) == {"q1", "q2"}
    got, polls, stop = [], [0, 0], threading.Event()

    def produce():
        for i in range(rounds):
            outs[0].send(i)

    def consume():
        for _ in range(rounds):
            got.append(ins[0].recv())

    def poll(k):
        while not stop.is_set():
            assert ins[1].try_recv() == (False, None)
            polls[k] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pollers = [spawn(poll, 0), spawn(poll, 1)]
        tasks = [spawn(produce), spawn(consume)]
        for task in tasks:
            task.join(60)
        stop.set()
        for task in pollers:
            task.join(20)
    finally:
        stop.set()
        sys.setswitchinterval(interval)
    tasks += pollers
    assert not any(task.alive for task in tasks)
    assert [task.exception for task in tasks] == [None] * 4
    assert got == list(range(rounds)) and all(polls)
    assert consumer.row.by_vertex == {"b1": 1, "b2": 1}  # the hint was in use
    assert conn.stats()["blocked"] == 0
    conn.close()
