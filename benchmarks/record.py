"""Record the repo's benchmark baseline into BENCH_engine.json, and gate on it.

Runs the engine-scaling sweep (E8) and every gate below, and writes one
JSON document at the repo root.  ``--check`` is CI's engine regression
gate (``bench-smoke`` in .github/workflows/ci.yml); it reads no file.
Each of its gates is a ratio of two paths timed in the same process and
rounds, held under a constant below, so the host's speed, and which of
its speed modes a run meets, cancel:

* ``single_region`` — E8's one-lane pump, ns/step in units of
  :func:`reference_us`, the median over interleaved rounds;
* ``fig12_steps`` — the Fig. 12 connectors' compiled firing cost in
  reference units, geomean over the rows;
* ``reinstantiate`` — a second instance's cycle ÷ the same cycle with the
  per-process compile tables cleared;
* ``lockstep_scaling`` — each family's N = 16 ÷ N = 2 kernel row, and the
  N = 2 rows and Merger/2 in reference units;
* ``port_pair`` — a port ``send`` + ``recv`` ÷ the same work through
  ``post_*``;
* ``expansion`` — merged ÷ flat and delta ÷ merged expansion;
* ``row_build`` — a new compiled row built as the engine finds plans ÷
  the same row with every plan at hand;
* ``template_build`` — FifoChain/8's compile + instantiate ÷
  EarlyAsyncMerger/8's.

Fig. 13's reo ÷ original is ``python -m repro fig13 --check``'s, in the
same CI job.

Usage::

    python benchmarks/record.py                    # full run, rewrite JSON
    python benchmarks/record.py --quick            # small windows
    python benchmarks/record.py --check            # regression gate (CI)

The engine-scaling rows are medians of ``--repeats`` independent runs; a
gate records its ratios as ``--check`` reads them.  The garbage collector
is disabled around each timed section (the same discipline as
``pytest --benchmark-disable-gc``).
"""

import argparse
import gc
import json
import math
import os
import pathlib
import platform
import statistics
import sys
import threading
import time
from collections import deque, namedtuple
from contextlib import contextmanager

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_engine_scaling import LANES, pump_once  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))
DEFAULT_OUT = ROOT / "BENCH_engine.json"


def _median_engine_row(k, values, repeats):
    samples = []
    gc.disable()
    try:
        for _ in range(repeats):
            steps, dt = pump_once(k, values=values)
            samples.append(dt / steps * 1e9)
    finally:
        gc.enable()
    ns = statistics.median(samples)
    return {
        "ns_per_step": round(ns, 1),
        "ns_per_step_min": round(min(samples), 1),
        "steps_per_s": round(1e9 / ns),
    }


def record_engine_scaling(values, repeats):
    return {
        f"regions/{k}": _median_engine_row(k, values, repeats) for k in LANES
    }


# --------------------------------------------------------------------------
# The same-run gates
# --------------------------------------------------------------------------

#: One gated ratio: ``value`` of ``row`` (what the gate measures again when
#: it is over ``bound``), what it divides, and what a failure suggests.
Ratio = namedtuple("Ratio", "row what value bound hint")


def reference_us(k: int = 5000, clock=time.perf_counter) -> float:
    """µs per round of the bare hand-off the gates count in: a locked append
    to a deque, then a locked drain of it — a posted operation and the drain
    that serves it, with no protocol in between."""
    lock, queue = threading.Lock(), deque()
    append, popleft = queue.append, queue.popleft
    t0 = clock()
    for j in range(k):
        with lock:
            append(j)
        with lock:
            while queue:
                popleft()
    return (clock() - t0) / k * 1e6


def _rounds(samplers: dict, n: int) -> dict:
    """``n`` rounds, each taking one sample of every sampler back to back,
    in reverse order every other round: a change of host speed lands inside
    a round, not between the sides of every round.  ``{name: samples}``"""
    order = list(samplers.items())
    out: dict = {name: [] for name in samplers}
    for i in range(n):
        for name, sample in order if i % 2 == 0 else order[::-1]:
            out[name].append(sample())
    return out


def _ratios(samples: dict, a, b) -> list:
    """Each round's sample of ``a`` ÷ its sample of ``b``."""
    return [x / y for x, y in zip(samples[a], samples[b])]


@contextmanager
def _pinned():
    """One core, gc off: how every gated row is timed."""
    cpu = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpu[:1])
    gc.disable()
    try:
        yield
    finally:
        gc.enable()
        os.sched_setaffinity(0, cpu)


def _add(best: dict, key, ratios: list) -> None:
    """Add a pass's per-round ratios of ``key``: a gate reads the median
    over every round of every pass, so more rounds settle a median that a
    burst of interference moved."""
    best.setdefault(key, []).extend(ratios)


#: Figures below are ten runs on the 2-core dev box (x86_64, CPython 3.11.7
#: with the GIL), each read as ``--check`` reads it.
#:
#: Single-region ns/step ÷ reference_us(), median of three passes of 45
#: rounds: 4.80–5.58, and 6.03–6.40 with a spin that makes every fired
#: step 14–26 % slower (the size of regression the old 1.25 × budget on
#: absolute ns caught).
SINGLE_REGION_BOUND = 5.8


def _single_region_pass(rows, best):
    """45 rounds of E8's one-lane pump (300 values, the size
    ``record_engine_scaling`` records) and the reference loop."""
    def pump():
        steps, dt = pump_once(1, values=300)
        return dt / steps * 1e6

    with _pinned():
        samples = _rounds({"pump": pump, "ref": reference_us}, 45)
    _add(best, ("regions/1", "ref_units"), _ratios(samples, "pump", "ref"))


def single_region_ratios(best):
    return [Ratio("regions/1", "ns/step in reference units",
                  statistics.median(best["regions/1", "ref_units"]),
                  SINGLE_REGION_BOUND,
                  "the single-region hot path is slower")]


#: Fig. 12's firing cost — ns per step of one drain of a staged backlog on a
#: warm ``compiled="auto"`` connector, in units of :func:`reference_us`:
#: every timed nanosecond is in the step-firing loop (candidate scan,
#: guards, data movement, completion), the code the step compiler emits.
#: The gated ratio is the geometric mean over FIG12_STEPS_ROWS of each
#: row's median over 15 rounds.  Thirty readings: 1.35–1.41; with every
#: emitted step calling ``_plan_for`` on each fire, as the interpreter
#: does, ten: 2.10–2.13.  The interpreter is not timed.
FIG12_STEPS_BOUND = 1.75
FIG12_STEPS_ROWS = tuple(f"{name}/{n}" for name in (
    "Replicator", "EarlyAsyncMerger", "Sequencer", "SequencedMerger")
    for n in (2, 8))


def _stage(conn, k: int) -> None:
    """Queue ``k`` sends per tail and ``k × tails`` receives per head
    straight into the idle engine's queues; the surplus receives keep a
    head from being the bottleneck, and what is left stays pending."""
    from repro.runtime.engine import _Op

    engine = conn.engine
    for v in conn.tail_vertices:
        engine._pending_send[v].extend(_Op(v, i) for i in range(k))
    surplus = k * max(1, len(conn.tail_vertices))
    for v in conn.head_vertices:
        engine._pending_recv[v].extend(_Op(v) for _ in range(surplus))
    for v in (*conn.tail_vertices, *conn.head_vertices):
        region = engine._route[v]
        region.pend[v] = None
        region.dirty = True


def _drain(conn) -> float:
    """µs per step of draining every dirty region to quiescence, region
    lock held, as a post does."""
    engine = conn.engine
    start = engine.steps
    t0 = time.perf_counter()
    for region in engine.regions:
        if region.dirty:
            with region.lock:
                engine._drain_region(region)
    return (time.perf_counter() - t0) * 1e6 / (engine.steps - start)


def _fig12_steps_pass(rows, best):
    """Every row built, connected and given one drain of a 200-op backlog
    (its states compiled outside the timer), then 15 rounds of a 500-op
    backlog's drain per row and a reference sample."""
    from repro.connectors import library
    from repro.runtime.ports import mkports

    conns = {}
    for key in FIG12_STEPS_ROWS:
        name, n = key.split("/")
        conn = conns[key] = library.connector(name, int(n), compiled="auto")
        conn.connect(*mkports(len(conn.tail_vertices),
                              len(conn.head_vertices)))
        _stage(conn, 200)
        _drain(conn)

    def sample(conn):
        _stage(conn, 500)
        return _drain(conn)

    with _pinned():
        samples = _rounds({**{key: (lambda c=conn: sample(c))
                              for key, conn in conns.items()},
                           "ref": reference_us}, 15)
    for key, conn in conns.items():
        conn.close()
        _add(best, (key, "ref_units"), _ratios(samples, key, "ref"))


def fig12_steps_ratios(best):
    return [Ratio("fig12", "firing ns/step in reference units, geomean",
                  statistics.geometric_mean(
                      statistics.median(best[key, "ref_units"])
                      for key in FIG12_STEPS_ROWS),
                  FIG12_STEPS_BOUND,
                  "compiled steps doing per-fire work again?")]


#: Second-instance cycle ÷ first-instance cycle (the per-process compile
#: tables cleared, as every instance paid before DECISIONS row 11), median
#: of 15 rounds: 0.10–0.14, Pipe/1 0.19–0.22; an instance that derives its
#: automata, plans and step code again reads 1.0.
REINSTANTIATE_BOUND = 0.3
REINSTANTIATE_ROWS = (
    "Replicator/2", "Replicator/4", "Replicator/8", "Replicator/16",
    "EarlyAsyncMerger/2", "EarlyAsyncMerger/4", "EarlyAsyncMerger/8",
    "EarlyAsyncMerger/16", "Pipe/1",
)


def _reinstantiate_pass(rows, best):
    """build → connect → two lock-step rounds → close
    (``tools/fig13_gap.py``'s cycle), 15 rounds per row: a cold one on
    cleared tables, then a warm one, which finds what the cold one derived
    — what each further instance of a definition costs."""
    from fig13_gap import cycle  # tools/; pulls in numpy

    from repro.automata import partition, simplify
    from repro.compiler import parametrized
    from repro.connectors import library
    from repro.npb.common import make_pipe

    def timed(make):
        t0 = time.perf_counter()
        cycle([make])
        return time.perf_counter() - t0

    with _pinned():
        for key in rows:
            name, n = key.split("/")
            make = make_pipe if name == "Pipe" else (
                lambda name=name, n=int(n): library.connector(name, n))
            ratios = []
            for _ in range(15):
                parametrized._programs.clear()
                simplify._shared_plans.clear()
                partition._composites.clear()
                cold = timed(make)
                ratios.append(timed(make) / cold)
            _add(best, (key, "warm_over_cold"), ratios)


def reinstantiate_ratios(best):
    return [Ratio(key, "second ÷ first instance",
                  statistics.median(best[key, "warm_over_cold"]),
                  REINSTANTIATE_BOUND,
                  "derived per instance again?")
            for key in REINSTANTIATE_ROWS]


#: Lock-step kernel rows — µs per step through ``post_recv``/``post_send``,
#: the suite's ``lockstep_posted`` driver — at these arities per family.
LOCKSTEP_NS = {
    "Sequencer": (2, 16), "SequencedMerger": (2, 16),
    "EarlyAsyncMerger": (2, 16), "Barrier": (2, 16), "Replicator": (2, 16),
    "Merger": (2,),
}
#: Each family's N = 16 row ÷ its N = 2 row, median of 24 rounds: the first
#: figure; commit dd05988, where every drain iteration hashed the
#: control-state tuple two or three times, read the second (E14).
LOCKSTEP_GROWTH_BOUND = {
    "Sequencer": 1.05,         # 0.89–0.93; 1.24
    "SequencedMerger": 1.10,   # 0.92–1.02; 1.21
    "EarlyAsyncMerger": 2.1,   # 1.83–1.97; 2.28
    "Barrier": 7.0,            # 6.13–6.56; 9.20
    "Replicator": 4.7,         # 4.03–4.37; 5.44
}
#: Each family's N = 2 row in reference units, median of 24 rounds: 1.07 ×
#: the highest reading, so a row 1.2–1.3 × slower than its lowest fails.
LOCKSTEP_REFERENCE_BOUND = {
    "Sequencer": 5.3,          # 4.37–4.95
    "SequencedMerger": 4.7,    # 3.91–4.40
    "EarlyAsyncMerger": 5.5,   # 4.49–5.15
    "Barrier": 14.5,           # 10.84–13.57
    "Replicator": 11.0,        # 9.13–10.26
    "Merger": 10.5,            # 8.86–9.82
}


def _lockstep_pass(families, best):
    """Per family, every row built and given the suite driver's 32 warm-up
    rounds, then 8 rounds of a 500-step sample of each row and a reference
    sample."""
    import harness  # benchmarks/suite: the rows are its rows, so is the driver

    ctx = harness.Ctx(seed=0, seconds=0.0, trace=False,
                      work_dir=ROOT / ".bench_work", host=harness.host_info())
    with _pinned():
        for family in families:
            rows = {n: harness.PostedRow(ctx, 0, family, n)
                    for n in LOCKSTEP_NS[family]}
            samplers = {n: (lambda row=row: row.sample(0, 500))
                        for n, row in rows.items()}
            samples = _rounds({**samplers, "ref": reference_us}, 8)
            for n, row in rows.items():
                _, failed = row.finish(0)
                assert not failed, (family, n)
            _add(best, (family, "ref_units"), _ratios(samples, 2, "ref"))
            if 16 in rows:
                _add(best, (family, "growth"), _ratios(samples, 16, 2))


def lockstep_ratios(best):
    return [
        Ratio(family, "N = 16 ÷ N = 2",
              statistics.median(best[family, "growth"]), bound,
              "hashing the control state per drain iteration again?")
        for family, bound in LOCKSTEP_GROWTH_BOUND.items()
    ] + [
        Ratio(family, "N = 2 µs/step in reference units",
              statistics.median(best[family, "ref_units"]), bound,
              "a slower kernel step?")
        for family, bound in LOCKSTEP_REFERENCE_BOUND.items()
    ]


#: Port-operation rows — an un-parked ``send`` + ``recv`` through ports ÷
#: the same work through ``post_*``, one thread, one core pinned, median of
#: 30 rounds: 0.99–1.05, and 1.08–1.13 when each port operation looks its
#: binding up and reads the clock again; commit bd82934,
#: where every port operation resolved its vertex per call (route lookup,
#: owner lock and re-check, open, policy and party lookups, and a clock
#: read), read 1.28 (EXPERIMENTS.md E15).
PORT_PAIR_BOUND = 1.06
PORT_PAIR_ROWS = ("EarlyAsyncMerger/2", "FifoChain/1")


def _port_round(conn, outs, ins, path, k=2000) -> float:
    """µs per round of ``k`` through ``path`` (``"port"`` or ``"post"``)."""
    engine = conn.engine
    tail, head = conn.tail_vertices[0], conn.head_vertices[0]
    post_send, post_recv = engine.post_send, engine.post_recv
    send, recv = outs[0].send, ins[0].recv
    t0 = time.perf_counter()
    if path == "port":
        for j in range(k):
            send(j)
            recv()
    else:
        for j in range(k):
            post_send(tail, j)
            post_recv(head)
    return (time.perf_counter() - t0) / k * 1e6


def _port_pair_pass(rows, best):
    """Per row, a connector per path given 200 warm-up rounds, then 10
    rounds of a sample through each."""
    from repro.connectors import library
    from repro.runtime.ports import mkports

    with _pinned():
        for key in rows:
            name, n = key.split("/")
            samplers, conns = {}, []
            for path in ("port", "post"):
                conn = library.connector(name, int(n))
                outs, ins = mkports(len(conn.tail_vertices),
                                    len(conn.head_vertices))
                conn.connect(outs, ins)
                _port_round(conn, outs, ins, path, 200)
                samplers[path] = (lambda c=conn, o=outs, i=ins, p=path:
                                  _port_round(c, o, i, p))
                conns.append(conn)
            samples = _rounds(samplers, 10)
            for conn in conns:
                conn.close()
            _add(best, (key, "port_over_post"),
                 _ratios(samples, "port", "post"))


def port_pair_ratios(best):
    return [Ratio(key, "port ÷ post",
                  statistics.median(best[key, "port_over_post"]),
                  PORT_PAIR_BOUND, "resolving the vertex per call again?")
            for key in PORT_PAIR_ROWS]


#: Cold-expansion rows — µs per state the JIT product expands, on the four
#: ``random_posted`` connectors: a fresh ``LazyProduct`` expands, in visit
#: order, the states three seeded 200-post schedules reach (gc off, one
#: core pinned, best over passes × rounds).  The initial state, which the
#: constructor expands at ``connect``, is outside the timer, as it is
#: outside the suite's timed passes.  Three kinds take turns over the same
#: states:
#:
#: * ``flat`` — over the connector's automata as compiled, every state
#:   expanded in full: what commit 72168e5 expands, where every state
#:   walked each stateless member of a synchronous sub-chain;
#: * ``merged`` — over what the connected region holds since those
#:   sub-chains are composed once at connect (DECISIONS row 16), every state
#:   expanded in full;
#: * ``delta`` — the same product, each state expanded from the row of the
#:   state it was first reached from, by the candidate that reached it, as
#:   the engine's drain does (DECISIONS row 17): only the components that
#:   firing moved, and those whose closures read one of them, are composed
#:   again.
#:
#: Every kind lays its segments end to end into a ``StateRow`` (without
#: step functions), as a compiled region's table keeps them.  Each row's
#: ``merged`` is held under EXPANSION_BOUND × its ``flat``, and each row of
#: DELTA_ROWS' ``delta`` under DELTA_BOUND × its ``merged``, read in the
#: same rounds.  LateAsyncReplicator/12 — most of its states grow new
#: closures — is not gated on ``delta``.  Thirty readings: delta ÷ merged
#: 0.46–0.72 (EarlyAsyncBarrierMerger/8 0.64–0.72); with ``compose_segments``
#: ignoring ``came`` and composing every segment anew, ten: 0.99–1.69.
EXPANSION_BOUND = 0.85
DELTA_BOUND = 0.85
EXPANSION_ROWS = ("EarlyAsyncMerger/16", "LateAsyncRouter/16",
                  "LateAsyncReplicator/12", "EarlyAsyncBarrierMerger/8")
DELTA_ROWS = ("EarlyAsyncMerger/16", "LateAsyncRouter/16",
              "EarlyAsyncBarrierMerger/8")


def _visited_states(name, n, schedule):
    """The connector's automata, the JIT region's, and the states one
    seeded schedule of 200 posts makes the region expand, in order, each as
    ``(state, the state it was reached from or None, the candidate)``."""
    import random

    from repro.connectors import library
    from repro.runtime.ports import mkports

    conn = library.connector(name, n)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    engine = conn.engine
    lazy = engine.regions[0].lazy
    edges = []
    expand = lazy.expand

    def recording(state, came=None, at=None):
        edges.append((state, None if came is None else came.state, at))
        return expand(state, came, at)

    lazy.expand = recording
    heads = list(conn.head_vertices)
    vertices = heads + list(conn.tail_vertices)
    handles = dict.fromkeys(vertices)
    rng = random.Random(f"expansion/{name}/{n}/{schedule}")
    for i in range(200):
        free = [v for v in vertices
                if handles[v] is None or handles[v].done]
        v = free[int(rng.random() * len(free))]
        handles[v] = (engine.post_recv(v) if v in heads
                      else engine.post_send(v, i))
    conn.close()
    return conn.automata, lazy.automata, edges


def _product(automata):
    """A fresh product of ``automata`` and the row of its initial state,
    which its constructor expands in full (at ``connect``, outside the
    suite's timed passes too)."""
    from itertools import chain

    from repro.automata.lazy import LazyProduct
    from repro.compiler.steps import StateRow

    lazy = LazyProduct(automata)
    first = lazy.first
    return lazy, {lazy.initial: StateRow(
        lazy.initial, list(chain.from_iterable(first[1])), (), first)}


def _expand_all(lazy, rows, edges, delta):
    """Expand every state of ``edges``, in order: from its predecessor's
    row where ``delta``, in full otherwise; each kept as a row."""
    from itertools import chain

    from repro.compiler.steps import StateRow

    for state, came, at in edges:
        expansion = (lazy.expand(state, rows.get(came), at) if delta
                     else lazy.expand(state))
        rows[state] = StateRow(
            state, list(chain.from_iterable(expansion[1])), (), expansion)


def _expansion_pass(rows, best, rounds=5):
    """``rounds`` timed expansions of every row, one of each kind in turn;
    ``best`` keeps each (row, kind)'s least µs per state."""
    with _pinned():
        for key in rows:
            name, n = key.split("/")
            runs = [_visited_states(name, int(n), k) for k in range(3)]
            expanded = sum(len(edges) for _, _, edges in runs)
            for kind in ("flat", "merged", "delta") * rounds:
                gc.enable()  # earlier rounds' garbage goes outside the timer
                products = [_product(flat if kind == "flat" else merged)
                            for flat, merged, _ in runs]
                gc.disable()
                t0 = time.perf_counter()
                for (lazy, rows_), (_, _, edges) in zip(products, runs):
                    _expand_all(lazy, rows_, edges, kind == "delta")
                us = (time.perf_counter() - t0) * 1e6 / expanded
                slot = key, f"{kind}_us"
                best[slot] = min(us, best.get(slot, us))


def expansion_ratios(best):
    return [
        Ratio(key, "merged ÷ flat",
              best[key, "merged_us"] / best[key, "flat_us"], EXPANSION_BOUND,
              "expanding stateless sub-chains per state again?")
        for key in EXPANSION_ROWS
    ] + [
        Ratio(key, "delta ÷ merged",
              best[key, "delta_us"] / best[key, "merged_us"], DELTA_BOUND,
              "recomposing components the firing did not change?")
        for key in DELTA_ROWS
    ]


#: Row-building rows — µs per new compiled row, on the states the
#: ``expansion`` rows expand (three seeded schedules per connector): each
#: state's ``StepCompiler.compile_state`` from the row of the state it was
#: first reached from, over the delta expansion the drain hands it.  Every
#: round compiles each connector from its text again, as the suite's cold
#: passes do, so its atoms are new objects and each step a row meets first
#: is planned and emitted there; the expansions are made on that connector
#: outside the timer.  Two such connectors take turns: ``cold`` finds each
#: new step's plan as the engine does, ``at_hand`` is handed it from a
#: table built outside the timer.  gc off, one core pinned.  Each row's
#: cold ÷ at-hand, median over the rounds, is what finding plans adds to a
#: new row.  Ten three-pass readings: EarlyAsyncMerger/16 1.25–1.33 and
#: EarlyAsyncBarrierMerger/8 1.15–1.19; with the engine's plan cache keyed
#: by value again 1.37–1.42 and 1.18–1.22 (``check_gate`` failed three runs
#: of three); with the parent's plan finding (by value, no hash kept;
#: commit 56ea0d3) 1.95–1.97 and 1.38–1.42.  LateAsyncRouter/16 (1.29–1.38)
#: and LateAsyncReplicator/12 (1.07–1.10), whose readings overlap the
#: by-value ones, are recorded and not gated.
ROW_BUILD_BOUND = {"EarlyAsyncMerger/16": 1.35, "LateAsyncRouter/16": math.inf,
                   "LateAsyncReplicator/12": math.inf,
                   "EarlyAsyncBarrierMerger/8": 1.30}
ROW_BUILD_ROWS = EXPANSION_ROWS


def _row_build_pass(rows, best, rounds=16):
    """``rounds`` of every row, cold and at-hand in turn."""
    from itertools import chain

    import repro
    from repro.compiler.steps import StateRow
    from repro.connectors import library

    def prepared(at_hand):
        """A connector per schedule, compiled from text, with the rows'
        expansions; ``at_hand``: its compiler reads plans from a table."""
        out = []
        for edges in runs:
            program = repro.compile_program(repro.parse(source))
            conn = program.instantiate_connector(name=name, sizes=int(n))
            conn.connect(*repro.mkports(len(conn.tail_vertices),
                                        len(conn.head_vertices)))
            lazy = conn.engine.regions[0].lazy
            rows_ = {lazy.initial: StateRow(
                lazy.initial, list(chain.from_iterable(lazy.first[1])), (),
                lazy.first)}
            expansions = {}
            for state, came, at in edges:
                e = expansions[state] = lazy.expand(state, rows_.get(came), at)
                rows_[state] = StateRow(
                    state, list(chain.from_iterable(e[1])), (), e)
            compiler = conn.engine._step_compiler
            if at_hand:
                plans = {s: conn.engine._plan_for(s)
                         for e in (lazy.first, *expansions.values())
                         for segment in e[1] for s in segment}
                compiler._plan_for = plans.__getitem__
            out.append((conn, compiler, lazy, edges, expansions))
        return out

    def build(prepared_):
        t0 = time.perf_counter()
        for _, compiler, lazy, edges, expansions in prepared_:
            compile_state = compiler.compile_state
            made = {lazy.initial: compile_state(lazy.initial, lazy.first)}
            for state, came, at in edges:
                came = made.get(came)
                made[state] = compile_state(state, expansions[state], came)
        return (time.perf_counter() - t0) * 1e6 / built

    with _pinned():
        for key in rows:
            name, n = key.split("/")
            source = library.dsl_source(name, int(n))
            runs = [_visited_states(name, int(n), k)[2] for k in range(3)]
            built = sum(map(len, runs))
            for i in range(rounds):
                gc.enable()
                sides = {"cold": prepared(False), "at_hand": prepared(True)}
                gc.disable()
                us = {kind: build(sides[kind])
                      for kind in ("cold", "at_hand")[::1 - 2 * (i % 2)]}
                for side in sides.values():
                    for conn, *_ in side:
                        conn.close()
                _add(best, (key, "cold_over_at_hand"),
                     [us["cold"] / us["at_hand"]])
                _add(best, (key, "cold_us"), [us["cold"]])


def row_build_ratios(best):
    return [Ratio(key, "cold ÷ plans-at-hand row",
                  statistics.median(best[key, "cold_over_at_hand"]),
                  ROW_BUILD_BOUND[key],
                  "finding a new step's plan by value again?")
            for key in ROW_BUILD_ROWS]


#: A medium template's build — ``compile_program`` + ``instantiate_connector``
#: from source text, the suite's ``compiler.*`` set-up spans — ÷
#: EarlyAsyncMerger/8's, median of the pass's rounds.  FifoChain/8's template
#: has 256 states and 1 714 transitions; EarlyAsyncMerger/8's groups are a
#: few primitives each.  Thirty three-pass readings: 3.87–4.07; with the
#: maximal enumeration doctored back to walking every state's whole choice
#: tree (DECISIONS row 33), ten readings 8.91–9.52.
TEMPLATE_BUILD_BOUND = 6.0
TEMPLATE_BUILD_ROWS = ("FifoChain/8",)
TEMPLATE_BUILD_REFERENCE = "EarlyAsyncMerger/8"


def _template_build_pass(rows, best):
    """15 rounds of each row's build and the reference's."""
    import repro
    from repro.connectors import library

    def build(key):
        name, n = key.split("/")
        source = library.dsl_source(name, int(n))

        def sample():
            t0 = time.perf_counter()
            program = repro.compile_program(repro.parse(source))
            conn = program.instantiate_connector(name=name, sizes=int(n))
            dt = time.perf_counter() - t0
            conn.close()
            return dt
        return sample

    with _pinned():
        for key in rows:
            samples = _rounds(
                {key: build(key), "ref": build(TEMPLATE_BUILD_REFERENCE)}, 15)
            _add(best, (key, "over_reference"), _ratios(samples, key, "ref"))


def template_build_ratios(best):
    return [Ratio(key, f"build ÷ {TEMPLATE_BUILD_REFERENCE}'s",
                  statistics.median(best[key, "over_reference"]),
                  TEMPLATE_BUILD_BOUND,
                  "composing a template in more than the time it keeps?")
            for key in TEMPLATE_BUILD_ROWS]


#: gate → (one pass over some of its rows, its ratios, its rows, passes).
GATES = {
    "single_region": (_single_region_pass, single_region_ratios,
                      ("regions/1",), 3),
    "fig12_steps": (_fig12_steps_pass, fig12_steps_ratios, ("fig12",), 1),
    "reinstantiate": (_reinstantiate_pass, reinstantiate_ratios,
                      REINSTANTIATE_ROWS, 1),
    "lockstep_scaling": (_lockstep_pass, lockstep_ratios,
                         tuple(LOCKSTEP_NS), 3),
    "port_pair": (_port_pair_pass, port_pair_ratios, PORT_PAIR_ROWS, 3),
    "expansion": (_expansion_pass, expansion_ratios, EXPANSION_ROWS, 5),
    "row_build": (_row_build_pass, row_build_ratios, ROW_BUILD_ROWS, 3),
    "template_build": (_template_build_pass, template_build_ratios,
                       TEMPLATE_BUILD_ROWS, 3),
}


def _measure(gate: str) -> dict:
    """The gate's passes over its rows, then the rows of every ratio over
    its bound again, up to three more passes whose rounds join the ones
    already read."""
    measure, ratios, rows, passes = GATES[gate]
    best: dict = {}
    for _ in range(passes):
        measure(rows, best)
    for _ in range(3):
        over = {r.row for r in ratios(best) if r.value > r.bound}
        if not over:
            break
        measure([row for row in rows if row in over], best)
    return best


def record_gate(gate: str) -> dict:
    """The gate's ratios, as ``--check`` reads them."""
    ratios = GATES[gate][1](_measure(gate))
    return {f"{r.row} {r.what}": round(r.value, 3) for r in ratios}


def check_gate(gate: str) -> int:
    """Print the gate's worst ratio and a ``FAIL:`` line per ratio over its
    bound; 1 if there is one."""
    ratios = GATES[gate][1](_measure(gate))
    worst = max(ratios, key=lambda r: r.value / r.bound)
    print(f"{gate}: {len(ratios)} ratios, worst {worst.row} {worst.what} "
          f"{worst.value:.2f} (bound {worst.bound:.2f})")
    over = [r for r in ratios if r.value > r.bound]
    for r in over:
        print(f"FAIL: {gate}: {r.row} {r.what} {r.value:.2f} over "
              f"{r.bound:.2f} — {r.hint}")
    return 1 if over else 0


def record(out: pathlib.Path, quick: bool, repeats: int) -> dict:
    doc = {
        "schema": 1,
        "platform": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "engine_scaling": record_engine_scaling(
            values=100 if quick else 300, repeats=repeats
        ),
    }
    for gate in GATES:
        doc[gate] = record_gate(gate)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def check() -> int:
    """The CI regression gate: every gate, each printing its verdict; 1 if
    any failed.  Nothing is read from another run."""
    failed = [check_gate(gate) for gate in GATES]
    if any(failed):
        return 1
    print("OK")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    ap.add_argument("--quick", action="store_true",
                    help="small windows")
    ap.add_argument("--repeats", type=int, default=5,
                    help="runs per configuration (median recorded)")
    ap.add_argument("--check", action="store_true",
                    help="run the same-run gates instead of rewriting "
                         "the JSON (exit 1 on regression)")
    args = ap.parse_args(argv)
    if args.check:
        return check()
    doc = record(args.out, quick=args.quick, repeats=args.repeats)
    scaling = doc["engine_scaling"]
    growth = (scaling[f"regions/{LANES[-1]}"]["ns_per_step"]
              / scaling["regions/1"]["ns_per_step"])
    print(f"wrote {args.out} "
          f"({len(scaling)} engine rows, {len(GATES)} gates; "
          f"ns/step grows {growth:.2f}x from 1 to {LANES[-1]} regions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
