"""The compiled step tier (:mod:`repro.compiler.steps`, docs/COMPILER.md).

Covers tier selection (``compiled="auto"``/``"off"``), the refusal
contract (what the interpreter would raise at first fire is raised where a
state's row is built), differential behaviour against the interpretive
tier on the unobserved fast path, recompilation across ``reconfigure``,
and the closure-binding contract (compiled steps keep working after a
checkpoint restore mutates the buffer store in place).
"""

import pytest

from repro.automata.constraint import DEFAULT_REGISTRY
from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.connector import RuntimeConnector
from repro.runtime.errors import CompileError
from repro.runtime.ports import mkports

from tests.conftest import pump


def drive_posted(conn, rounds=20):
    """Single-threaded unobserved driving over post_send/post_recv — the
    compiled tier's zero-allocation fast path (no tracer, no metrics, no
    parked threads).  Returns the per-head received values."""
    engine = conn.engine
    tails, heads = list(conn.tail_vertices), list(conn.head_vertices)
    outstanding = {}
    got = {v: [] for v in heads}
    for k in range(rounds):
        for v in heads:
            op = outstanding.get(v)
            if op is not None and op.done:
                got[v].append(op.value)
                outstanding[v] = None
            if outstanding.get(v) is None:
                outstanding[v] = engine.post_recv(v)
        for v in tails:
            op = outstanding.get(v)
            if op is None or op.done:
                outstanding[v] = engine.post_send(v, k)
    for v in heads:
        op = outstanding.get(v)
        if op is not None and op.done:
            got[v].append(op.value)
    return got


# -- tier selection ---------------------------------------------------------


def test_auto_compiles_library_connectors():
    for name in ("Replicator", "EarlyAsyncMerger", "Sequencer"):
        conn = library.connector(name, 2, compiled="auto")
        outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
        conn.connect(outs, ins)
        stats = conn.stats()
        assert stats["step_tier"] == "auto"
        assert stats["compiled_regions"] >= 1, name
        conn.close()


def test_off_never_compiles():
    conn = library.connector("Replicator", 2, compiled="off")
    outs, ins = mkports(1, 2)
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == 0
    got = drive_posted(conn, rounds=5)
    conn.close()
    h0, h1 = conn.head_vertices
    assert got[h0] == got[h1] and len(got[h0]) >= 3


def test_auto_compiles_every_region():
    conn = library.connector("Sequencer", 3)
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] == len(conn.engine.regions)
    conn.close()


def test_invalid_tier_rejected():
    for tier in ("sometimes", "require"):
        with pytest.raises(ValueError, match="compiled"):
            library.connector("Replicator", 2, compiled=tier)
    with pytest.raises(TypeError, match="step_mode"):
        RuntimeConnector([], [], [], step_mode="minimal")


# -- refusals ----------------------------------------------------------------


#: ``<late>`` refuses in the state the region starts in, or in the state a
#: first firing leads to.
LATE = {"initial": "T(a;b) = Transform<late>(a;b)",
        "next": "T(a;b) = Fifo1(a;m) mult Transform<late>(m;b)"}


@pytest.mark.parametrize("tier", ["auto", "off", "off-aot"])
@pytest.mark.parametrize("where", list(LATE))
def test_a_refusal_is_the_interpreters_error(where, tier):
    """Under ``auto`` an unregistered name is the interpreter's
    ``KeyError``, raised where the refusing state's row is built — at
    ``connect``, or at the post that reaches the state — again on every
    retry, and no more once the name is registered; nothing is remembered
    of it.  Under ``off`` the name resolves at first fire, so a
    registration after ``connect`` works, composed ahead of time too."""
    reg = DEFAULT_REGISTRY.merged_with(None)
    tier, _, composition = tier.partition("-")
    conn = compile_source(LATE[where]).instantiate_connector(
        "T", registry=reg, compiled=tier, composition=composition or "jit")
    tail, head = conn.tail_vertices[0], conn.head_vertices[0]
    if tier == "auto" and where == "initial":
        for _ in range(2):
            with pytest.raises(KeyError, match="late"):
                conn.connect(*mkports(1, 1))
        assert conn.engine is None
        reg.register_function("late", lambda x: x * 10)
        conn.connect(*mkports(1, 1))
        conn.engine.post_send(tail, 4)
    elif tier == "auto":
        conn.connect(*mkports(1, 1))
        # 4 fires into the refusing state; 5 and 6 retry there.
        for value in (4, 5, 6):
            with pytest.raises(KeyError, match="late"):
                conn.engine.post_send(tail, value)
        reg.register_function("late", lambda x: x * 10)
    else:
        conn.connect(*mkports(1, 1))
        reg.register_function("late", lambda x: x * 10)  # after connect
        conn.engine.post_send(tail, 4)
    op = conn.engine.post_recv(head)
    assert op.done and op.value == 40
    assert conn.stats()["compiled_regions"] == (tier == "auto")
    conn.close()


def test_unregistered_function_fails_require():
    """The compiled tier fails the connect on an unregistered name in the
    initial state, with the interpreter's ``KeyError``."""
    with pytest.raises(KeyError, match="late"):
        compile_source(LATE["initial"]).instantiate_connector(
            "T", compiled="auto"
        ).connect(*mkports(1, 1))


def test_over_budget_still_compiles_and_runs(monkeypatch):
    """An eager region over ``TRANSITION_BUDGET`` compiles per visited
    state, as a lazy region does: only the current one at ``connect``."""
    from repro.compiler import steps

    monkeypatch.setattr(steps, "TRANSITION_BUDGET", 0)
    conn = library.connector("EarlyAsyncMerger", 2, composition="aot")
    conn.connect(*mkports(2, 1))
    (region,) = conn.engine.regions
    assert conn.stats()["compiled_regions"] == 1
    assert conn.stats()["compiled_states"] == 1
    got = drive_posted(conn)
    assert conn.stats()["compiled_states"] == region.automaton.n_states == 4
    conn.close()
    assert len(got[conn.head_vertices[0]]) >= 10


def test_compile_error_is_value_error():
    """CompileError subclasses ValueError so legacy call sites that caught
    ValueError around codegen/simplify keep working."""
    assert issubclass(CompileError, ValueError)


# -- differential: compiled vs interpretive on the fast path ----------------


@pytest.mark.parametrize("name,n", [
    ("Replicator", 2), ("EarlyAsyncMerger", 3), ("Sequencer", 3),
    ("SequencedMerger", 2), ("Alternator", 2), ("Barrier", 2),
])
def test_two_tier_differential_unobserved(name, n):
    """Same single-threaded posted workload, no tracer/metrics attached
    (the compiled tier's fast path returns True without building the
    observability tuple): per-head streams must be identical."""
    results = {}
    for tier in ("off", "auto"):
        conn = library.connector(name, n, compiled=tier)
        outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
        conn.connect(outs, ins)
        results[tier] = drive_posted(conn)
        stats = conn.stats()
        conn.close()
        if tier == "auto":
            assert stats["compiled_regions"] >= 1, name
        else:
            assert stats["compiled_regions"] == 0
    assert results["off"] == results["auto"], name


def test_data_constraints_compiled():
    """Filters and transforms inline to plain comparisons/calls in the
    generated source; semantics must match the interpretive plan walk."""
    reg = DEFAULT_REGISTRY.merged_with(None)
    reg.register_predicate("even", lambda x: x % 2 == 0)
    reg.register_function("double", lambda x: 2 * x)
    src = "T(a;b) = Filter<even>(a;m) mult Transform<double>(m;b)"
    got = {}
    for tier in ("off", "auto"):
        conn = compile_source(src).instantiate_connector(
            "T", registry=reg, compiled=tier
        )
        got[tier] = pump(conn, {0: [1, 2, 3, 4]}, {0: 2})[0]
    assert got["auto"] == got["off"] == [4, 8]


# -- reconfigure and restore ------------------------------------------------


def test_reconfigure_recompiles():
    """leave() recompiles the protocol for the smaller arity and re-adopts
    regions: the compiled tables must be rebuilt against the fresh
    structures (pending queues, buffers), and the survivors keep flowing
    through the compiled tier."""
    import threading

    conn = library.connector("Merger", 3, compiled="auto",
                             default_timeout=10.0)
    outs, ins = mkports(3, 1)
    conn.connect(outs, ins)
    assert conn.stats()["compiled_regions"] >= 1
    got: list = []

    def recv_some(count):
        t = threading.Thread(
            target=lambda: got.extend(ins[0].recv() for _ in range(count))
        )
        t.start()
        return t

    t = recv_some(1)
    outs[2].send("pre")
    t.join(10.0)
    conn.leave(outs[2])
    assert conn.stats()["compiled_regions"] >= 1  # recompiled, not demoted
    t = recv_some(2)
    outs[0].send("x")
    outs[1].send("y")
    t.join(10.0)
    assert got == ["pre", "x", "y"]
    conn.close()


def test_restore_feeds_compiled_closures():
    """set_contents mutates the deques compiled closures bind, so buffered
    state restored from a checkpoint must be visible to compiled steps."""
    c1 = library.connector("EarlyAsyncMerger", 2, compiled="auto")
    outs1, ins1 = mkports(2, 1)
    c1.connect(outs1, ins1)
    outs1[0].send("kept")
    cp = c1.checkpoint()
    c1.close()

    c2 = library.connector("EarlyAsyncMerger", 2, compiled="auto")
    outs2, ins2 = mkports(2, 1)
    c2.connect(outs2, ins2)
    c2.restore(cp)
    assert c2.stats()["compiled_regions"] >= 1
    assert ins2[0].recv() == "kept"
    c2.close()


# -- emitted source ---------------------------------------------------------


def test_region_sources_rows():
    from repro.compiler.steps import region_sources

    conn = library.connector("Sequencer", 2, compiled="auto")
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    rows = region_sources(conn.engine)
    assert rows, "compiled regions must expose their emitted source"
    for _idx, _state, label, source in rows:
        assert source.startswith("def _fire(")
        compile(source, f"<recheck {label}>", "exec")  # stays valid Python
    conn.close()


# -- one emission per distinct step -----------------------------------------


def random_posts(conn, posts=200, seed=0):
    """A seeded random schedule over ``post_send``/``post_recv`` from a cold
    connector (what ``benchmarks/suite/random_posted.py`` does): wide state
    spaces, a new control state every few posts."""
    import random

    engine = conn.engine
    heads, tails = list(conn.head_vertices), list(conn.tail_vertices)
    vertices = heads + tails
    handles = dict.fromkeys(vertices)
    rng = random.Random(seed)
    for k in range(posts):
        free = [v for v in vertices if handles[v] is None or handles[v].done]
        v = rng.choice(free)
        handles[v] = (engine.post_recv(v) if v in heads
                      else engine.post_send(v, k))


def connected(name, n, **options):
    conn = library.connector(name, n, **options)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    assert conn.stats()["compiled_regions"] == len(conn.engine.regions)
    return conn


def installed(engine):
    """Every ``(state, CompiledStep)`` currently in a region table."""
    return [(state, e) for r in engine.regions if r.compiled
            for state, row in r.table.items() for e in row.entries]


def test_step_functions_are_shared_between_states():
    """The emitted function depends on the composed step, not on the state
    it leaves or reaches: states that share a step share its one
    ``CompiledStep``; where it leads from each is the row's to know."""
    conn = connected("EarlyAsyncMerger", 16)
    random_posts(conn)
    entries = installed(conn.engine)
    stats = conn.stats()
    fires = {id(e.fire) for _s, e in entries}
    assert len(entries) > 400
    assert len(fires) < 100
    assert stats["emitted_steps"] == len(fires)
    assert stats["compiled_states"] == len({s for s, _e in entries})
    by_fire = {}
    for state, e in entries:
        by_fire.setdefault(id(e.fire), []).append((state, e))
    (s1, e1), (s2, e2) = max(by_fire.values(), key=len)[:2]
    assert s1 != s2 and e1 is e2
    (region,) = conn.engine.regions
    r1, r2 = region.table.get(s1), region.table.get(s2)
    step = r1.steps[r1.entries.index(e1)]
    assert step is r2.steps[r2.entries.index(e2)]
    assert step.successor(s1) != step.successor(s2)
    conn.close()


def test_region_sources_keep_one_row_per_state_and_transition():
    from repro.compiler.steps import region_sources

    conn = connected("EarlyAsyncMerger", 8)
    random_posts(conn, posts=60)
    rows = region_sources(conn.engine)
    assert len(rows) == len(installed(conn.engine))
    assert len(rows) > conn.stats()["emitted_steps"]
    assert all(source.startswith("def _fire(") for *_, source in rows)
    conn.close()


# -- what must not outlive what: the memo's lifetime ------------------------


def test_leave_starts_a_fresh_compiler_and_fresh_functions():
    """``leave`` re-adopts regions over new queues: nothing emitted for the
    old ones may be reused, and the count starts again."""
    conn = connected("EarlyAsyncMerger", 4)
    random_posts(conn, posts=40)
    old_compiler = conn.engine._step_compiler
    old = [e.fire for _s, e in installed(conn.engine)]  # kept alive: no id reuse
    assert conn.stats()["emitted_steps"] > 4
    conn.leave(conn._outports[3])
    assert conn.engine._step_compiler is not old_compiler
    assert conn.stats()["emitted_steps"] <= len(installed(conn.engine))
    random_posts(conn, posts=40)
    assert not {id(f) for f in old} & {id(e.fire) for _s, e in installed(conn.engine)}
    # ...and the survivors' traffic went through the new functions
    assert conn.stats()["compiled_regions"] == len(conn.engine.regions)
    conn.close()


def test_restore_onto_a_warm_connector_keeps_its_functions():
    """``restore`` mutates buffers in place and keeps tables, so the
    memoised functions stay valid — and see the restored contents."""
    conn = connected("EarlyAsyncMerger", 3)
    outs, ins = conn._outports, conn._inports
    outs[0].send("a")
    cp = conn.checkpoint()
    assert ins[0].recv() == "a"
    outs[1].send("b")
    assert ins[0].recv() == "b"
    before = {s: tuple(e.fire for e in row.entries)
              for r in conn.engine.regions for s, row in r.table.items()}
    emitted = conn.stats()["emitted_steps"]
    conn.restore(cp)
    after = {s: tuple(e.fire for e in row.entries)
             for r in conn.engine.regions for s, row in r.table.items()}
    assert after == before and conn.stats()["emitted_steps"] == emitted
    assert ins[0].recv() == "a"  # the restored value, through a kept function
    conn.close()


def test_two_regions_compile_concurrently_under_their_own_locks():
    """Partitioned regions share one ``StepCompiler``; each thread expands
    and compiles its own region's states under that region's lock only."""
    import sys
    import threading

    from repro.compiler.fromgraph import connector_from_graph
    from repro.connectors.graph import Arc, ConnectorGraph
    from repro.connectors.library import BuiltConnector

    lanes, k, rounds = 4, 8, 5
    graph = ConnectorGraph()
    tails = []
    for lane in range(lanes):
        mids = tuple(f"l{lane}m{i}" for i in range(k))
        for i in range(k):
            graph = graph.add(Arc("sync", (f"l{lane}t{i}",), (mids[i],), ()))
            tails.append(f"l{lane}t{i}")
        graph = graph.add(Arc("seq", mids, (), ()))
    conn = connector_from_graph(
        BuiltConnector(graph, tuple(tails), ()), name="SeqLanes",
        default_timeout=10.0)
    outs, _ = mkports(lanes * k, 0)
    conn.connect(outs, [])
    assert len(conn.engine.regions) == lanes
    assert len({id(r.lock) for r in conn.engine.regions}) == lanes
    start = threading.Barrier(lanes)
    errors = []

    def drive(lane):
        try:
            start.wait()
            for r in range(rounds):
                for i in range(k):
                    outs[lane * k + i].send((lane, r, i))
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=drive, args=(lane,))
                   for lane in range(lanes)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(20.0)
    finally:
        sys.setswitchinterval(interval)
    assert not errors and not any(t.is_alive() for t in threads)
    stats = conn.stats()
    assert stats["steps"] == lanes * k * rounds
    assert stats["compiled_regions"] == lanes
    assert stats["compiled_states"] == lanes * k
    assert stats["emitted_steps"] == lanes * k  # one per step, none lost
    conn.close()


# -- close() frees what the engine built ------------------------------------


def test_closed_connector_leaves_little_for_the_cyclic_collector():
    """Tables, caches and memos die by reference count inside ``close()``:
    tens of thousands of objects left to the generational collector would
    turn up as a pause in whatever allocates next."""
    import gc

    gc.collect()
    gc.disable()
    try:
        conn = connected("EarlyAsyncMerger", 16)
        random_posts(conn)
        assert conn.stats()["compiled_states"] > 20
        conn.close()
        after = conn.stats()
        del conn
        garbage = gc.collect()
    finally:
        gc.enable()
    assert garbage < 5000
    assert after["steps"] > 100 and after["expansions"] > 20
    assert (after["cached_states"], after["compiled_states"],
            after["emitted_steps"]) == (0, 0, 0)


# -- one per-state table per JIT region -------------------------------------


def merger_walk(conn, posts, seed=7, each=None):
    """A seeded walk over an EarlyAsyncMerger that keeps finding new states
    (the probe of docs/DECISIONS.md row 4): every post goes to the head with
    probability ½, else to a tail drawn from those with nothing outstanding,
    so the buffers neither fill nor drain.  ``each`` sees ``stats()`` after
    every post.  Returns the head's delivery stream."""
    import random

    engine = conn.engine
    (head,) = conn.head_vertices
    handles = dict.fromkeys([*conn.tail_vertices, head])
    rng = random.Random(seed)
    recvs = []
    for k in range(posts):
        free = [v for v in conn.tail_vertices
                if handles[v] is None or handles[v].done]
        head_free = handles[head] is None or handles[head].done
        if head_free and (not free or rng.random() < 0.5):
            handles[head] = engine.post_recv(head)
            recvs.append(handles[head])
        elif free:
            v = rng.choice(free)
            handles[v] = engine.post_send(v, k)
        if each is not None:
            each(conn.stats())
    return [h.value for h in recvs if h.done]


def test_a_bounded_cache_bounds_the_compiled_entries_too():
    """``cache_factory`` bounds the region's one table, whichever tier fills
    it: eviction drops a state's compiled entry with it, a re-visit expands
    again (a memo walk), and nothing observable changes."""
    from repro.automata.lazy import LRUCache

    def bounded(stats):
        assert stats["cached_states"] <= 8 and stats["compiled_states"] <= 8

    free = connected("EarlyAsyncMerger", 8)
    small = connected("EarlyAsyncMerger", 8, cache_factory=lambda: LRUCache(8))
    want = merger_walk(free, 600)
    got = merger_walk(small, 600, each=bounded)
    visited = free.stats()["expansions"]
    assert visited > 8 and small.stats()["expansions"] > visited
    assert small.stats()["compiled_regions"] == 1
    assert got == want and len(got) > 100
    free.close()
    small.close()


def test_the_compiled_tier_has_no_state_cliff():
    """Every state a compiled JIT region visits is stored once, compiled,
    however many there are — no constant decides which states stay
    interpreted."""
    import repro.runtime.engine as engine_module

    conn = connected("EarlyAsyncMerger", 16)
    merger_walk(conn, 24_000)
    stats = conn.stats()
    assert stats["expansions"] > 4096
    assert (stats["compiled_states"] == stats["cached_states"]
            == stats["expansions"])
    assert not hasattr(engine_module, "_STATE_TABLE_CAP")
    conn.close()


def test_a_redone_segment_that_comes_back_unchanged_is_not_compiled_again():
    """``compile_state`` from a predecessor's row compiles a redone segment
    only if it is not the very tuple the predecessor holds: on
    LateAsyncReplicator/12 most new states recompose a segment that comes
    back so, and that segment's entries are the predecessor's, with no
    ``compile_transition`` call."""
    conn = library.connector("LateAsyncReplicator", 12)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    region = conn.engine.regions[0]
    lazy, compiler = region.lazy, conn.engine._step_compiler
    calls = []
    compile_transition = compiler.compile_transition
    compiler.compile_transition = (
        lambda step: calls.append(step) or compile_transition(step))
    first = region.table.get(lazy.initial)
    frontier, seen, kept_total = [first], {first.state}, 0
    while frontier and len(seen) < 200:
        came = frontier.pop(0)
        for at, step in enumerate(came.steps):
            state = step.successor(came.state)
            if state in seen:
                continue
            seen.add(state)
            expansion = lazy.expand(state, came, at)
            _, segments, redone = expansion
            calls.clear()
            row = compiler.compile_state(state, expansion, came)
            frontier.append(row)
            assert redone is not None
            kept = [k for k in redone if segments[k] is came.segments[1][k]]
            assert len(calls) == sum(len(segments[k]) for k in redone
                                     if k not in kept)
            for k in kept:
                assert row.segments[2][k] is came.segments[2][k]
            kept_total += len(kept)
    assert kept_total > 0
    conn.close()
