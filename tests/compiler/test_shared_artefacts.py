"""Compile once per process, bind per instance (ISSUE 22).

Four artefacts are derived once and shared: the compiled program
(``compile_source``, by source text), the instantiated automata
(``CompiledProtocol.automata_for``, per protocol and bindings), the firing
plans (``simplify.shared_plan``, by value) and the step templates (source
text + code object, one slot on each plan).  These tests pin that a second
instance derives nothing, that it is indistinguishable from the first, that
what depends on a registry is *not* shared, and that the tables stay
bounded and survive racing threads.  Structural and deterministic: no
timing.
"""

import builtins
import gc
import json
import random
import sys
import threading
import tracemalloc

import pytest

from repro.automata import simplify
from repro.automata.constraint import DEFAULT_REGISTRY
from repro.compiler import compile_source, parametrized, plan as plan_mod
from repro.compiler.steps import region_sources
from repro.connectors import library
from repro.npb.common import make_pipe
from repro.runtime.durable import checkpoint_to_data
from repro.runtime.ports import mkports

CASES = [(name, n) for name in library.names() for n in (2, 4)]
CASES.append(("Pipe", 1))
IDS = [f"{name}{n}" for name, n in CASES]


def clear_shared():
    """Forget every process-wide compile artefact (the automata memos go
    with the programs that own them, the templates with the plans)."""
    parametrized._programs.clear()
    simplify._shared_plans.clear()


def build(name, n, **options):
    if name == "Pipe":
        conn = make_pipe(**options)
    else:
        conn = library.connector(name, n, **options)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    return conn


def cycle(name, n, **options):
    """build → connect → visit states on a fixed schedule → close; returns
    everything an instance shows of how it was compiled and where it is.

    Phase 1 is 200 seeded ``try_*`` operations (the engine stays quiescent,
    so a checkpoint can follow); phase 2 is 200 seeded posts over the
    vertices with nothing outstanding, which is what drives the synchronous
    connectors through their states."""
    conn = build(name, n, **options)
    engine = conn.engine
    heads, tails = list(conn.head_vertices), list(conn.tail_vertices)
    vertices = heads + tails
    rng = random.Random(f"{name}/{n}")
    for i in range(200):
        v = vertices[int(rng.random() * len(vertices))]
        if v in heads:
            engine.try_submit(engine.binding(v))
        else:
            engine.try_submit(engine.binding(v), i)
    checkpoint = json.dumps(checkpoint_to_data(conn.checkpoint()),
                            sort_keys=True).encode()
    handles = dict.fromkeys(vertices)
    received = []
    for i in range(200):
        free = [v for v in vertices
                if handles[v] is None or handles[v].done]
        v = free[int(rng.random() * len(free))]
        if v in heads:
            handles[v] = engine.post_recv(v)
            received.append(handles[v])
        else:
            handles[v] = engine.post_send(v, 1000 + i)
    seen = {
        "checkpoint": checkpoint,
        # candidate order and emitted text, state by state
        "sources": region_sources(engine),
        "cursors": [dict(r.cursors) for r in engine.regions],
        "states": [r.state for r in engine.regions],
        "received": [(op.vertex, op.value) for op in received if op.done],
        "stats": {k: conn.stats()[k] for k in (
            "steps", "plans", "emitted_steps", "expansions",
            "cached_states", "compiled_states", "compiled_regions")},
    }
    conn.close()
    return seen


class Counters:
    """Call counts of the four derivations a second instance must skip."""

    def __init__(self, monkeypatch):
        self.calls = dict.fromkeys(
            ("compile", "commandify", "instantiate", "parse"), 0)

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                self.calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            builtins, "compile", counted("compile", builtins.compile))
        monkeypatch.setattr(
            simplify, "commandify", counted("commandify", simplify.commandify))
        monkeypatch.setattr(
            plan_mod.PlanNode, "instantiate",
            counted("instantiate", plan_mod.PlanNode.instantiate))
        # compile_source's own reference to repro.lang.parser.parse
        monkeypatch.setattr(
            parametrized, "parse", counted("parse", parametrized.parse))

    def take(self):
        out, self.calls = self.calls, dict.fromkeys(self.calls, 0)
        return out


# -- a second instance derives nothing and looks the same ---------------------


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_second_instance_derives_nothing_and_is_identical(name, n, monkeypatch):
    clear_shared()
    cycle(name, n)  # imports and whatever else happens once per process
    clear_shared()
    counters = Counters(monkeypatch)
    first = cycle(name, n)
    cold = counters.take()
    assert all(cold.values()), cold  # the counters see all four
    second = cycle(name, n)
    assert counters.take() == dict.fromkeys(cold, 0)
    # per-instance work is counted per instance, not per cache miss
    assert second["stats"] == first["stats"]
    assert first["stats"]["compiled_regions"] >= 1
    assert first["stats"]["plans"] > 0 and first["stats"]["emitted_steps"] > 0
    assert second == first


@pytest.mark.parametrize("name,n", CASES, ids=IDS)
def test_first_instance_checkpoint_restores_into_a_second(name, n):
    first, second = build(name, n), build(name, n)
    rng = random.Random(7)
    tails = first.tail_vertices
    for i in range(20):
        v = tails[int(rng.random() * len(tails))]
        first.engine.try_submit(first.engine.binding(v), i)
    cp = first.checkpoint()
    second.restore(cp)
    assert checkpoint_to_data(second.checkpoint()) == checkpoint_to_data(cp)
    first.close()
    second.close()


def test_instances_share_the_template_but_not_the_code_object():
    """CPython keeps a function's inline caches in its code object, so two
    live instances firing in turn through one would evict each other's
    (measured: +10–20 % per step at 2–8 instances).  Each gets a copy."""
    clear_shared()
    a, b = build("Merger", 2), build("Merger", 2)

    def fires(conn):
        return [entry.fire for _, row in sorted(
            conn.engine.regions[0].table.items()) for entry in row.entries]

    templates = {p.template[1] for p in simplify._shared_plans.values()}
    for fa, fb in zip(fires(a), fires(b), strict=True):
        assert fa.__code__ is not fb.__code__
        assert fa.__code__ == fb.__code__  # same text, names, constants
        assert all(fa.__code__ is not t for t in templates)
        assert any(fa.__code__ == t for t in templates)
        assert fa.__globals__ is not fb.__globals__
        assert "_fire" not in fa.__globals__  # no cycle through the namespace
    a.close()
    b.close()


def test_make_pipe_parses_once(monkeypatch):
    clear_shared()
    counters = Counters(monkeypatch)
    a, b = make_pipe(), make_pipe()
    assert counters.take()["parse"] == 1
    assert a._protocol is b._protocol


def test_fifo_chain_depths_are_different_programs():
    three = library.connector("FifoChain", 3)
    four = library.connector("FifoChain", 4)
    assert three._protocol is not four._protocol
    assert library.connector("FifoChain", 3)._protocol is three._protocol
    # every other connector: one program for all n
    assert (library.connector("Merger", 2)._protocol
            is library.connector("Merger", 5)._protocol)
    assert not hasattr(library, "_compiled_cache")


def test_automata_are_shared_but_the_list_is_the_callers():
    protocol = compile_source(library.dsl_source("Barrier")).protocol("Barrier")
    bindings = protocol.default_bindings(3)
    one, two = protocol.automata_for(bindings), protocol.automata_for(bindings)
    assert one is not two and all(a is b for a, b in zip(one, two))
    one.clear()
    assert len(protocol.automata_for(bindings)) == len(two)
    small = protocol.automata_for(bindings, "small")
    assert [a.name for a in small] != [a.name for a in two] or small != two


# -- what must not be shared ----------------------------------------------------

SCALE = "T(a;b) = Transform<scale>(a;m) mult Fifo1(m;b)"
GATE = "G(a;b) = Filter<keep>(a;m) mult Fifo1(m;b)"


def fresh_registry(**functions):
    reg = DEFAULT_REGISTRY.merged_with(None)
    for name, fn in functions.items():
        reg.register_function(name, fn)
    return reg


def connect(conn, tier):
    """Connect a 1→1 connector; under ``auto`` its one region compiles."""
    conn.connect(*mkports(1, 1))
    assert conn.stats()["compiled_regions"] == (tier == "auto")


def through(conn, value):
    """One value through a connected 1→1 connector, by posts."""
    engine = conn.engine
    engine.post_send(conn.tail_vertices[0], value)
    op = engine.post_recv(conn.head_vertices[0])
    assert op.done
    return op.value


@pytest.mark.parametrize("tier", ["off", "auto"])
def test_two_registries_each_fire_their_own_function(tier):
    clear_shared()
    double = fresh_registry(scale=lambda x: 2 * x)
    triple = fresh_registry(scale=lambda x: 3 * x)
    program = compile_source(SCALE)
    for _ in range(3):  # instantiated alternately
        for reg, factor in ((double, 2), (triple, 3)):
            conn = program.instantiate_connector(
                "T", registry=reg, compiled=tier)
            connect(conn, tier)
            assert through(conn, 7) == 7 * factor
            conn.close()


@pytest.mark.parametrize("tier", ["off", "auto"])
def test_two_registries_each_check_their_own_predicate(tier):
    clear_shared()
    evens, odds = fresh_registry(), fresh_registry()
    evens.register_predicate("keep", lambda x: x % 2 == 0)
    odds.register_predicate("keep", lambda x: x % 2 == 1)
    program = compile_source(GATE)
    for _ in range(2):
        for reg, kept in ((evens, 4), (odds, 5)):
            conn = program.instantiate_connector(
                "G", registry=reg, compiled=tier)
            connect(conn, tier)
            assert conn.engine.post_send(conn.tail_vertices[0], 9 - kept).done
            assert through(conn, kept) == kept  # the other one was lost
            conn.close()


@pytest.mark.parametrize("tier", ["off", "auto"])
def test_a_reregistered_name_reaches_the_next_instance(tier):
    clear_shared()
    reg = fresh_registry(scale=lambda x: 2 * x)
    program = compile_source(SCALE)
    first = program.instantiate_connector("T", registry=reg, compiled=tier)
    connect(first, tier)
    assert through(first, 5) == 10
    reg.register_function("scale", lambda x: x + 100)
    second = program.instantiate_connector("T", registry=reg, compiled=tier)
    connect(second, tier)
    assert through(second, 5) == 105
    assert through(first, 5) == 10  # planned before the re-registration
    first.close()
    second.close()


def test_a_refusal_is_not_remembered_across_instances():
    clear_shared()
    reg = fresh_registry()
    program = compile_source(SCALE)
    with pytest.raises(KeyError, match="scale"):
        program.instantiate_connector("T", registry=reg).connect(*mkports(1, 1))
    reg.register_function("scale", lambda x: -x)
    second = program.instantiate_connector("T", registry=reg)
    second.connect(*mkports(1, 1))  # does not raise
    assert second.stats()["compiled_regions"] == 1
    assert through(second, 3) == -3
    second.close()


def test_resolved_plans_stay_out_of_the_shared_table():
    clear_shared()
    conn = compile_source(SCALE).instantiate_connector(
        "T", registry=fresh_registry(scale=abs))
    conn.connect(*mkports(1, 1))
    assert conn.stats()["compiled_regions"] == 1
    assert through(conn, -2) == 2
    mine = [plan for plan, _atoms, _effects in conn.engine._plans.values()]
    assert any(p.resolved for p in mine)
    shared = list(simplify._shared_plans.values())
    assert shared and not any(p.resolved for p in shared)
    assert all(p in shared for p in mine if not p.resolved)
    conn.close()


def frozen(plan):
    return (plan.guards, plan.assigns, plan.checks, plan.pops, plan.pushes,
            plan.deliveries, plan.never, plan.n_slots)


@pytest.mark.parametrize("tier", ["off", "auto"])
def test_a_shared_plan_is_frozen_and_survives_a_thousand_fires(tier):
    clear_shared()
    conn = build("EarlyAsyncMerger", 3, compiled=tier)
    engine, head = conn.engine, conn.head_vertices[0]

    def fire(count):
        for i in range(count):
            engine.post_send(conn.tail_vertices[i % 3], i)
            assert engine.post_recv(head).value == i

    fire(3)  # the interpreter plans at first fire
    plans = list(simplify._shared_plans.values())
    before = [frozen(p) for p in plans]
    fire(1000)
    assert plans and all(
        isinstance(field, tuple) for p in plans for field in frozen(p)[:6])
    assert list(simplify._shared_plans.values()) == plans  # same objects
    assert [frozen(p) for p in plans] == before
    assert all(a is b for p, was in zip(plans, before)
               for a, b in zip(frozen(p), was))
    conn.close()


def test_leave_does_not_disturb_a_sibling_on_the_same_automata():
    leaver = library.connector("Barrier", 3, default_timeout=5.0)
    sibling = library.connector("Barrier", 3, default_timeout=5.0)
    assert all(a is b for a, b in zip(leaver.automata, sibling.automata))
    l_outs, l_ins = mkports(3, 3)
    leaver.connect(l_outs, l_ins)
    sibling.connect(*mkports(3, 3))
    leaver.leave(l_outs[2], l_ins[2])
    assert len(leaver.tail_vertices) == 2

    def barrier_round(conn, parties):
        engine = conn.engine
        recvs = [engine.post_recv(h) for h in conn.head_vertices]
        sends = [engine.post_send(t, k)
                 for k, t in enumerate(conn.tail_vertices[:parties])]
        return sends + recvs

    # the sibling is still a 3-party barrier: two senders do not pass
    assert not any(op.done for op in barrier_round(sibling, 2))
    last = sibling.engine.post_send(sibling.tail_vertices[2], 2)
    assert last.done
    assert all(op.done for op in barrier_round(leaver, 2))
    # and a third instance at arity 3 still gets the 3-party automata
    third = library.connector("Barrier", 3)
    assert all(a is b for a, b in zip(third.automata, sibling.automata))
    leaver.close()
    sibling.close()


# -- bounds and threads -----------------------------------------------------------


def eam4_cycle():
    conn = build("EarlyAsyncMerger", 4)
    engine, head = conn.engine, conn.head_vertices[0]
    for k, t in enumerate(conn.tail_vertices):
        engine.post_send(t, k)
    got = sorted(engine.post_recv(head).value for _ in range(4))
    conn.close()
    return got


def table_sizes():
    protocol = compile_source(
        library.dsl_source("EarlyAsyncMerger")).protocol("EarlyAsyncMerger")
    return (len(parametrized._programs), len(protocol._automata),
            len(simplify._shared_plans))


def test_two_thousand_cycles_grow_nothing():
    clear_shared()
    assert eam4_cycle() == [0, 1, 2, 3]
    sizes = table_sizes()
    assert all(sizes)
    tracemalloc.start()
    try:
        eam4_cycle()
        gc.collect()
        before = tracemalloc.take_snapshot()
        for _ in range(2000):
            eam4_cycle()
        gc.collect()
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert table_sizes() == sizes
    growth = sum(s.size_diff for s in after.compare_to(before, "filename"))
    assert growth < 64 * 1024, growth


def test_overflowing_every_cap_stays_correct_and_bounded(monkeypatch):
    clear_shared()
    monkeypatch.setattr(parametrized, "PROGRAM_CAP", 8)
    monkeypatch.setattr(plan_mod, "AUTOMATA_CAP", 8)
    monkeypatch.setattr(simplify, "SHARED_PLAN_CAP", 8)
    reference = {}
    for sweep in range(2):
        for name, n in CASES[::3]:
            seen = cycle(name, n)
            assert reference.setdefault((name, n), seen) == seen
            assert len(parametrized._programs) <= 8
            assert len(simplify._shared_plans) <= 8
    protocol = compile_source(library.dsl_source("Merger")).protocol("Merger")
    for n in range(1, 20):
        assert len(protocol.automata_for(protocol.default_bindings(n))) >= 1
        assert len(protocol._automata) <= 8
    for depth in range(1, 20):
        library.connector("FifoChain", depth)
        assert len(parametrized._programs) <= 8


def test_racing_instantiations_all_verify():
    clear_shared()
    threads, cycles = 8, 50
    start = threading.Barrier(threads)
    failures = []

    def worker():
        try:
            start.wait(30)
            for _ in range(cycles):
                if eam4_cycle() != [0, 1, 2, 3]:
                    failures.append("wrong delivery")
        except BaseException as exc:  # reported below, on the main thread
            failures.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in pool)
    assert failures == []
    assert len(parametrized._programs) == 1
    # whichever racing derivations won, what is installed is one instance's
    # worth: a later instance derives nothing and behaves the same
    sizes = table_sizes()
    assert eam4_cycle() == [0, 1, 2, 3]
    assert table_sizes() == sizes


@pytest.mark.fuzz
@pytest.mark.parametrize("cleared", [False, True], ids=["warm", "cleared"])
def test_fuzz_slice_on_warm_and_on_cleared_tables(cleared):
    """Forty seeds of the full-mode sweep in one process: later seeds run on
    tables the earlier ones filled — or on none, cleared before each.  (The
    200-seed runs, both ways, are recorded in CHANGES.md; this is their
    always-on slice.)"""
    from repro.fuzz.gen import generate
    from repro.fuzz.harness import run_all
    from repro.fuzz.sim import build_script, make_schedule

    for seed in range(40):
        if cleared:
            clear_shared()
        program = generate(seed)
        script = build_script(program, seed)
        schedule = make_schedule(program, script, seed)
        _, diffs = run_all(program, script, schedule)
        assert not diffs, (seed, diffs)
