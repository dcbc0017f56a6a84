"""Record the repo's benchmark baseline into BENCH_engine.json.

Runs the engine-scaling sweep (E8), the firing-cost sweep over the Fig. 12
connectors, and the Fig. 13 NPB panels (E2/E3), and writes one JSON
document at the repo root with median ns/step and steps/second per
connector × arity.  The committed file is the regression yardstick for
CI's ``bench-smoke`` job (see .github/workflows/ci.yml), which re-measures
the single-region hot path at tiny sizes and fails on a >25% ns/step
regression via ``--check``.

Usage::

    python benchmarks/record.py                    # full run, rewrite JSON
    python benchmarks/record.py --quick            # small windows, no NPB
    python benchmarks/record.py --check            # regression gate (CI)

Medians of ``--repeats`` independent runs are recorded, with the garbage
collector disabled around each timed section (the same discipline as
``pytest --benchmark-disable-gc``).
"""

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent))

from bench_engine_scaling import LANES, pump_once  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
sys.path.insert(0, str(ROOT / "benchmarks" / "suite"))
DEFAULT_OUT = ROOT / "BENCH_engine.json"

#: bench-smoke fails when single-region ns/step exceeds baseline × this.
REGRESSION_BUDGET = 1.25

#: bench-smoke fails when the compiled step tier's geomean speedup over the
#: interpreter on the Fig. 12 firing-cost sweep drops below this (the
#: compiled tier's reason to exist; see docs/COMPILER.md).
STEP_SPEEDUP_FLOOR = 5.0


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
    # The min is the regression-gate statistic: on a loaded box the median
    # absorbs scheduler noise, the fastest run is the engine's real cost.
    return {
        "ns_per_step": round(ns, 1),
        "ns_per_step_min": round(min(samples), 1),
        "steps_per_s": round(1e9 / ns),
    }


def record_engine_scaling(values, repeats):
    return {
        f"regions/{k}": _median_engine_row(k, values, repeats) for k in LANES
    }


def record_fig12_steps(backlog, repeats):
    """Two-tier firing-cost sweep (interpretive vs compiled step functions)
    over the Fig. 12 connectors; see benchmarks/bench_compiled_steps.py for
    the staged-drain methodology."""
    from bench_compiled_steps import geomean_speedup, sweep

    rows = sweep(backlog=backlog, repeats=repeats)
    return {"rows": rows,
            "geomean_speedup": round(geomean_speedup(rows), 2)}


#: Second-instance cycles, µs on the dev box (2 cores, CPython 3.11.7, GIL,
#: one core pinned, min of 25) at the parent commit 485293a, where every
#: instance re-derived automata, plans and step code.  ISSUE 22 shares them
#: per process; ``--check`` holds each row under REINSTANTIATE_CEILING of
#: these absolute figures (the change reads 0.16–0.29 of them), so a path
#: that derives per instance again fails on any host not 2× slower.
REINSTANTIATE_PARENT_US = {
    "Replicator/2": 465.1, "Replicator/4": 783.2, "Replicator/8": 1261.4,
    "Replicator/16": 2383.4, "EarlyAsyncMerger/2": 1114.2,
    "EarlyAsyncMerger/4": 2329.4, "EarlyAsyncMerger/8": 5091.8,
    "EarlyAsyncMerger/16": 11984.3, "Pipe/1": 671.1,
}
REINSTANTIATE_CEILING = 0.6
REINSTANTIATE_HOST = "dev box: 2 cores, x86_64, CPython 3.11.7 (GIL)"


def record_reinstantiate(repeats):
    """build → connect → two lock-step rounds → close of a definition this
    process has instantiated before (``tools/fig13_gap.py``'s cycle): what
    each further instance costs."""
    from fig13_gap import best_ms, cycle  # tools/; pulls in numpy

    from repro.connectors import library
    from repro.npb.common import make_pipe

    rows = {}
    cpu = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpu[:1])
    gc.disable()
    try:
        for key, parent_us in REINSTANTIATE_PARENT_US.items():
            name, n = key.split("/")
            make = make_pipe if name == "Pipe" else (
                lambda name=name, n=int(n): library.connector(name, n))
            cycle([make])  # the first instance
            rows[key] = {
                "us": round(1e3 * best_ms(lambda: cycle([make]), repeats), 1),
                "parent_us": parent_us,
                "ceiling_us": round(REINSTANTIATE_CEILING * parent_us, 1),
            }
    finally:
        gc.enable()
        os.sched_setaffinity(0, cpu)
    return {"host": REINSTANTIATE_HOST, "rows": rows}


def _check_reinstantiate() -> int:
    """The compile-once gate: every second-instance cycle under its
    absolute ceiling (µs, measured on the host the message names)."""
    now = record_reinstantiate(repeats=15)["rows"]
    over = {k: r for k, r in now.items() if r["us"] > r["ceiling_us"]}
    worst = max(now.values(), key=lambda r: r["us"] / r["ceiling_us"])
    print(f"reinstantiate: {len(now)} second-instance cycles, worst at "
          f"{worst['us']:.0f} µs of a {worst['ceiling_us']:.0f} µs ceiling "
          f"({REINSTANTIATE_CEILING:.1f} × the parent on the "
          f"{REINSTANTIATE_HOST})")
    for key, row in over.items():
        print(f"FAIL: {key} second instance {row['us']:.0f} µs over "
              f"{row['ceiling_us']:.0f} µs — derived per instance again?")
    return 1 if over else 0


#: Lock-step kernel rows — µs per step through ``post_recv``/``post_send``,
#: the suite's ``lockstep_posted`` driver, best sample — on the dev box at
#: the parent commit dd05988, where every drain iteration hashed the
#: control-state tuple two or three times (``region.lookup``,
#: ``cursors.get``, the cursor store).  ISSUE 23 keeps the candidates, the
#: cursor and the successor links in a per-state row; ``--check`` holds each
#: row under an absolute ceiling, LOCKSTEP_CEILING × these figures: 0.92 at
#: N = 16, where the change reads 0.57–0.72, and 1.3 at N = 2, where it
#: reads 0.84–1.03 — so a loop that hashes wide states again fails on any
#: host not 1.1× faster, and the dev box's ±15 % speed modes fail nothing.
LOCKSTEP_PARENT_US = {
    "Sequencer/2": 2.73, "Sequencer/16": 3.39,
    "SequencedMerger/2": 2.59, "SequencedMerger/16": 3.14,
    "EarlyAsyncMerger/2": 3.10, "EarlyAsyncMerger/16": 7.07,
    "Barrier/2": 8.64, "Barrier/16": 79.5,
    "Replicator/2": 6.30, "Replicator/16": 34.3,
    "Merger/2": 5.14,
}
LOCKSTEP_CEILING = {2: 1.3, 16: 0.92}
LOCKSTEP_HOST = REINSTANTIATE_HOST


def _lockstep_pass(keys, best):
    """Four timed samples of 500 steps per row in ``keys``, after the suite
    driver's 32 warm-up rounds, one core pinned; ``best`` keeps each row's
    least."""
    import harness  # benchmarks/suite: the rows are its rows, so is the driver

    ctx = harness.Ctx(seed=0, seconds=0.0, trace=False,
                      work_dir=ROOT / ".bench_work", host=harness.host_info())
    with harness.main_pinned(ctx.host):
        for key in keys:
            name, n = key.split("/")
            row = harness.PostedRow(ctx, 0, name, int(n))
            us = min(row.sample(0, 500) for _ in range(4))
            _, failed = row.finish(0)
            assert not failed, key
            best[key] = min(us, best.get(key, us))


def record_lockstep_scaling(passes):
    """Best sample per row over ``passes`` passes of all rows: the host is
    slow for tenths of a second at a time, longer than one row takes, so a
    row's samples are spread over passes (the suite's discipline)."""
    best: dict = {}
    for _ in range(passes):
        _lockstep_pass(LOCKSTEP_PARENT_US, best)
    return {"host": LOCKSTEP_HOST, "rows": {
        key: {
            "us_per_step": round(best[key], 3),
            "parent_us_per_step": parent_us,
            "ceiling_us_per_step": round(
                LOCKSTEP_CEILING[int(key.split("/")[1])] * parent_us, 3),
        }
        for key, parent_us in LOCKSTEP_PARENT_US.items()
    }}


def _check_lockstep_scaling() -> int:
    """The row-driven-drain gate: every lock-step row under its absolute
    ceiling (µs per step, measured on the host the message names).  Rows
    over it are measured again, up to three more passes: noise only adds."""
    now = record_lockstep_scaling(passes=3)["rows"]
    best = {key: row["us_per_step"] for key, row in now.items()}

    def over():
        return [key for key, row in now.items()
                if best[key] > row["ceiling_us_per_step"]]

    for _ in range(3):
        if not over():
            break
        _lockstep_pass(over(), best)
    worst = max(now, key=lambda k: best[k] / now[k]["ceiling_us_per_step"])
    print(f"lockstep_scaling: {len(now)} rows, worst {worst} at "
          f"{best[worst]:.2f} µs/step of a "
          f"{now[worst]['ceiling_us_per_step']:.2f} µs ceiling (absolute, "
          f"from the parent on the {LOCKSTEP_HOST})")
    for key in over():
        print(f"FAIL: {key} {best[key]:.2f} µs/step over "
              f"{now[key]['ceiling_us_per_step']:.2f} — hashing the control "
              "state per drain iteration again?")
    return 1 if over() else 0


#: Port-operation rows — µs per un-parked ``send`` + ``recv`` through ports
#: (EarlyAsyncMerger/2, FifoChain/1), or per Replicator/2 round (a posted
#: receive on each head, then the port ``send`` that fires them), one
#: thread, one core pinned, best sample — each beside the same work through
#: ``post_*``.  PORT_PAIR_PARENT_US holds (port, post) on the dev box at the
#: parent commit bd82934, where every port operation resolved its vertex
#: per call: route lookup, owner lock and re-check, open, policy and party
#: lookups, and a clock read.  A port now binds its vertex at connect;
#: ``--check`` holds the two pair rows under PORT_PAIR_CEILING × the
#: parent's port figure (the change reads 0.69–0.73 of it), so a port path
#: that goes back to per-call resolution fails on any host not 1.2× faster.
#: The Replicator round is two posts and one port operation — reference
#: only, not gated.
PORT_PAIR_PARENT_US = {
    "EarlyAsyncMerger/2": (5.737, 4.488),
    "FifoChain/1": (5.019, 3.914),
    "Replicator/2": (4.743, 4.198),
}
PORT_PAIR_CEILING = 0.85
PORT_PAIR_GATED = ("EarlyAsyncMerger/2", "FifoChain/1")
PORT_PAIR_HOST = REINSTANTIATE_HOST


def _port_sample(conn, outs, ins, path, k=2000) -> float:
    """µs per round of ``k`` through ``path`` (``"port"`` or ``"post"``)."""
    engine = conn.engine
    tail, heads = conn.tail_vertices[0], conn.head_vertices
    post_send, post_recv = engine.post_send, engine.post_recv
    send, recv = outs[0].send, ins[0].recv
    t0 = time.perf_counter()
    if len(heads) > 1:  # every receive posted, then the send that fires
        if path == "port":
            for j in range(k):
                for h in heads:
                    post_recv(h)
                send(j)
        else:
            for j in range(k):
                for h in heads:
                    post_recv(h)
                post_send(tail, j)
    elif path == "port":
        for j in range(k):
            send(j)
            recv()
    else:
        for j in range(k):
            post_send(tail, j)
            post_recv(heads[0])
    return (time.perf_counter() - t0) / k * 1e6


def _port_pair_pass(keys, best):
    """Four timed samples per row in ``keys`` and path, on a fresh connector
    each after 200 warm-up rounds, gc off, one core pinned; ``best`` keeps
    each (row, path)'s least."""
    from repro.connectors import library
    from repro.runtime.ports import mkports

    cpu = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpu[:1])
    gc.disable()
    try:
        for key in keys:
            name, n = key.split("/")
            for path in ("port", "post"):
                conn = library.connector(name, int(n))
                outs, ins = mkports(len(conn.tail_vertices),
                                    len(conn.head_vertices))
                conn.connect(outs, ins)
                _port_sample(conn, outs, ins, path, 200)
                us = min(_port_sample(conn, outs, ins, path)
                         for _ in range(4))
                conn.close()
                best[key, path] = min(us, best.get((key, path), us))
    finally:
        gc.enable()
        os.sched_setaffinity(0, cpu)


def record_port_pair(passes):
    """Best sample per row and path over ``passes`` passes of all rows: the
    samples of a row are spread over passes, as in
    :func:`record_lockstep_scaling`."""
    best: dict = {}
    for _ in range(passes):
        _port_pair_pass(PORT_PAIR_PARENT_US, best)
    return {"host": PORT_PAIR_HOST, "rows": {
        key: {
            "port_us": round(best[key, "port"], 3),
            "post_us": round(best[key, "post"], 3),
            "parent_port_us": port, "parent_post_us": post,
            "ceiling_us": (round(PORT_PAIR_CEILING * port, 3)
                           if key in PORT_PAIR_GATED else None),
        }
        for key, (port, post) in PORT_PAIR_PARENT_US.items()
    }}


def _check_port_pair() -> int:
    """The bound-port gate: every port row under its absolute ceiling (µs,
    measured on the host the message names).  Rows over it are measured
    again, up to three more passes: noise only adds."""
    now = record_port_pair(passes=3)["rows"]
    best = {(key, "port"): row["port_us"] for key, row in now.items()}

    def over():
        return [key for key in PORT_PAIR_GATED
                if best[key, "port"] > now[key]["ceiling_us"]]

    for _ in range(3):
        if not over():
            break
        _port_pair_pass(over(), best)
    for key, row in now.items():
        ceiling = (f"a {row['ceiling_us']:.2f} µs ceiling, "
                   f"{PORT_PAIR_CEILING:.2f} × the parent's port figure on "
                   f"the {PORT_PAIR_HOST}" if row["ceiling_us"]
                   else "reference only")
        print(f"port_pair: {key} port {best[key, 'port']:.2f} µs, post "
              f"{row['post_us']:.2f} ({ceiling})")
    for key in over():
        print(f"FAIL: {key} port {best[key, 'port']:.2f} µs over "
              f"{now[key]['ceiling_us']:.2f} — resolving the vertex per "
              "call again?")
    return 1 if over() else 0


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
#: step functions), as a compiled region's table keeps them.  ``--check``
#: holds each row's ``merged`` under EXPANSION_CEILING × its ``flat``, and
#: each row of DELTA_ROWS' ``delta`` under DELTA_CEILING × its ``merged``,
#: read in the same rounds, so the dev box's speed modes (±40 % on these
#: rows) cancel.  LateAsyncReplicator/12 — most of its states grow new
#: closures — is recorded, not gated on ``delta``.  EXPANSION_PARENT_US is
#: the figure of commit 72168e5 on the dev box (best of 15 passes in its
#: fast mode, the constructor's expansion of the initial state timed too),
#: kept for reference; an absolute ceiling at 0.85 × it failed the merged
#: product in the slow mode.
EXPANSION_PARENT_US = {
    "EarlyAsyncMerger/16": 48.34, "LateAsyncRouter/16": 83.08,
    "LateAsyncReplicator/12": 17.07, "EarlyAsyncBarrierMerger/8": 37.32,
}
EXPANSION_CEILING = 0.85
DELTA_ROWS = ("EarlyAsyncMerger/16", "LateAsyncRouter/16",
              "EarlyAsyncBarrierMerger/8")
DELTA_CEILING = 0.75
EXPANSION_HOST = REINSTANTIATE_HOST


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


def _expansion_pass(keys, best, rounds=5):
    """``rounds`` timed expansions of every row in ``keys``, one of each
    kind in turn; ``best`` keeps each (row, kind)'s least µs per state."""
    cpu = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, cpu[:1])
    try:
        for key in keys:
            name, n = key.split("/")
            runs = [_visited_states(name, int(n), k) for k in range(3)]
            expanded = sum(len(edges) for _, _, edges in runs)
            for kind in ("flat", "merged", "delta") * rounds:
                products = [_product(flat if kind == "flat" else merged)
                            for flat, merged, _ in runs]
                gc.disable()
                t0 = time.perf_counter()
                for (lazy, rows), (_, _, edges) in zip(products, runs):
                    _expand_all(lazy, rows, edges, kind == "delta")
                us = (time.perf_counter() - t0) * 1e6 / expanded
                gc.enable()
                best[key, kind] = min(us, best.get((key, kind), us))
    finally:
        gc.enable()
        os.sched_setaffinity(0, cpu)


def record_expansion(passes):
    """Best per row and kind over ``passes`` passes of all rows."""
    best: dict = {}
    for _ in range(passes):
        _expansion_pass(EXPANSION_PARENT_US, best)
    return {"host": EXPANSION_HOST, "ceiling": EXPANSION_CEILING,
            "delta_ceiling": DELTA_CEILING, "rows": {
                key: {
                    "us_per_expansion": round(best[key, "merged"], 2),
                    "flat_us_per_expansion": round(best[key, "flat"], 2),
                    "delta_us_per_expansion": round(best[key, "delta"], 2),
                    "parent_us_per_expansion": parent_us,
                }
                for key, parent_us in EXPANSION_PARENT_US.items()
            }}


def _check_expansion() -> int:
    """The expansion gates, each a ratio of two kinds read in the same
    rounds: every row's merged expansion under EXPANSION_CEILING × the flat
    one, and the delta expansion of DELTA_ROWS under DELTA_CEILING × the
    merged one.  Rows over either are measured again, up to three more
    passes: noise only adds."""
    now = record_expansion(passes=5)["rows"]
    best = {}
    for key, row in now.items():
        best[key, "merged"] = row["us_per_expansion"]
        best[key, "flat"] = row["flat_us_per_expansion"]
        best[key, "delta"] = row["delta_us_per_expansion"]

    def ratio(key, kind="merged", base="flat"):
        return best[key, kind] / best[key, base]

    def over():
        return [key for key in now if ratio(key) > EXPANSION_CEILING
                or key in DELTA_ROWS
                and ratio(key, "delta", "merged") > DELTA_CEILING]

    for _ in range(3):
        if not over():
            break
        _expansion_pass(over(), best)
    for key in now:
        gate = (f"ceiling {DELTA_CEILING:.2f}×" if key in DELTA_ROWS
                else "not gated")
        print(f"expansion: {key} {best[key, 'merged']:.1f} µs per state, "
              f"flat {best[key, 'flat']:.1f} ({ratio(key):.2f}×, ceiling "
              f"{EXPANSION_CEILING:.2f}×; commit 72168e5 read "
              f"{EXPANSION_PARENT_US[key]:.1f} on the {EXPANSION_HOST}), "
              f"delta {best[key, 'delta']:.1f} "
              f"({ratio(key, 'delta', 'merged'):.2f}× merged, {gate})")
    for key in over():
        if ratio(key) > EXPANSION_CEILING:
            print(f"FAIL: {key} expands at {ratio(key):.2f}× the flat "
                  "product — expanding stateless sub-chains per state "
                  "again?")
        else:
            print(f"FAIL: {key} delta-expands at "
                  f"{ratio(key, 'delta', 'merged'):.2f}× a full expansion "
                  "— recomposing components the firing did not change?")
    return 1 if over() else 0


def _fig13_secs(fn, repeats):
    secs = []
    gc.disable()
    try:
        for _ in range(repeats):
            result = fn()
            assert result.verified
            secs.append(result.seconds)
    finally:
        gc.enable()
    return secs


def record_fig13(repeats):
    from repro.npb import cg, lu

    rows = {}
    for prog_name, mod in (("cg", cg), ("lu", lu)):
        for label, fn in (("original", mod.run_original), ("reo", mod.run_reo)):
            secs = _fig13_secs(lambda: fn("S", 4), repeats)
            rows[f"{prog_name}/S/4/{label}"] = {
                "seconds": round(statistics.median(secs), 4)
            }
    return rows


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
        "fig12_steps": record_fig12_steps(
            backlog=500 if quick else 2000, repeats=repeats
        ),
        "reinstantiate": record_reinstantiate(repeats=5 * repeats),
        "lockstep_scaling": record_lockstep_scaling(passes=repeats),
        "port_pair": record_port_pair(passes=repeats),
        "expansion": record_expansion(passes=repeats),
    }
    if not quick:
        doc["fig13_npb"] = record_fig13(repeats=repeats)
    out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def check(baseline_path: pathlib.Path) -> int:
    """The CI regression gate: re-measure the single-region hot path at a
    tiny size and compare ns/step against the committed baseline."""
    baseline = json.loads(baseline_path.read_text())
    row = baseline["engine_scaling"]["regions/1"]
    pinned = row.get("ns_per_step_min", row["ns_per_step"])
    # Same per-run size as the recorded baseline (ns/step includes the
    # first-op plan warmup, so a smaller run would read systematically
    # slow), and min-of-N on both sides: fastest run vs fastest run.
    # Thread-wakeup noise in this lane is one-sided (slow outliers only),
    # so on an over-budget reading re-measure up to twice and keep the
    # overall min before declaring a regression.
    best = None
    for _attempt in range(3):
        now = _median_engine_row(1, values=300, repeats=5)
        best = (now["ns_per_step_min"] if best is None
                else min(best, now["ns_per_step_min"]))
        if best / pinned <= REGRESSION_BUDGET:
            break
    ratio = best / pinned
    print(
        f"single-region ns/step (min of 5): baseline {pinned:.0f}, "
        f"now {best:.0f} ({ratio:.2f}x, "
        f"budget {REGRESSION_BUDGET:.2f}x)"
    )
    if ratio > REGRESSION_BUDGET:
        print("FAIL: single-region hot path regressed beyond budget")
        return 1
    rc = _check_steps(baseline.get("fig12_steps"))
    if rc:
        return rc
    rc = _check_reinstantiate()
    if rc:
        return rc
    rc = _check_lockstep_scaling()
    if rc:
        return rc
    rc = _check_port_pair()
    if rc:
        return rc
    rc = _check_expansion()
    if rc:
        return rc
    rc = _check_fig13(baseline.get("fig13_npb"))
    if rc:
        return rc
    print("OK")
    return 0


def _check_steps(baseline_steps) -> int:
    """The compiled-tier gate: re-measure the two-tier Fig. 12 firing-cost
    sweep and enforce (a) geomean compiled speedup ≥ STEP_SPEEDUP_FLOOR and
    (b) no >REGRESSION_BUDGET geomean regression of the per-row
    compiled-over-interpreter *ratio* against the committed baseline.
    Gating the ratio rather than raw compiled ns/step makes the comparison
    immune to host-speed drift (both tiers run in the same window, so a
    slow box cancels out) while still tripping when the compiled tier
    itself loses ground; geomean-over-rows because per-row comparisons at
    the compiled tier's ~1 µs/step scale would trip on scheduler noise
    alone."""
    from bench_compiled_steps import geomean_speedup, sweep

    now = sweep(backlog=2000, repeats=3)
    speedup = geomean_speedup(now)
    print(f"fig12 firing-cost geomean speedup (compiled over interpreter): "
          f"{speedup:.2f}x (floor {STEP_SPEEDUP_FLOOR:.1f}x)")
    if speedup < STEP_SPEEDUP_FLOOR:
        print("FAIL: compiled step tier speedup below floor")
        return 1
    if baseline_steps:
        base_rows = baseline_steps["rows"]
        prod, count = 1.0, 0
        for key, row in now.items():
            base = base_rows.get(key)
            if base is None:
                continue
            now_ratio = row["compiled_ns"] / row["interp_ns"]
            base_ratio = base["compiled_ns"] / base["interp_ns"]
            prod *= now_ratio / base_ratio
            count += 1
        if count:
            ratio = prod ** (1.0 / count)
            print(f"compiled/interp ratio vs baseline (geomean over {count} "
                  f"rows): {ratio:.2f}x (budget {REGRESSION_BUDGET:.2f}x)")
            if ratio > REGRESSION_BUDGET:
                print("FAIL: compiled step tier regressed beyond budget")
                return 1
    return 0


def _check_fig13(baseline_rows) -> int:
    """The fig13 gate: re-measure the NPB panels and gate the reo/original
    *ratio* against the committed baseline's ratio with the standard
    budget.  Gating the ratio makes the check immune to host-speed drift
    (both variants run on the same box), while still tripping when the
    protocol layer's overhead grows relative to the hand-threaded original
    — the figure the paper is about."""
    if not baseline_rows:
        print("fig13: no baseline rows recorded — skipping gate")
        return 0
    from repro.npb import cg, lu

    for prog_name, mod in (("cg", cg), ("lu", lu)):
        base_orig = baseline_rows.get(f"{prog_name}/S/4/original")
        base_reo = baseline_rows.get(f"{prog_name}/S/4/reo")
        if not (base_orig and base_reo):
            continue
        base_ratio = base_reo["seconds"] / base_orig["seconds"]
        # min-of-2: NPB runs are seconds-scale and one-sided noisy.
        orig = min(_fig13_secs(lambda: mod.run_original("S", 4), 2))
        reo = min(_fig13_secs(lambda: mod.run_reo("S", 4), 2))
        ratio = reo / orig
        print(f"fig13 {prog_name}/S/4 reo/original ratio: {ratio:.2f}x "
              f"(baseline {base_ratio:.2f}x, "
              f"budget {REGRESSION_BUDGET:.2f}x drift)")
        if ratio / base_ratio > REGRESSION_BUDGET:
            print(f"FAIL: {prog_name} protocol overhead regressed beyond "
                  "budget")
            return 1
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=pathlib.Path, default=DEFAULT_OUT)
    ap.add_argument("--quick", action="store_true",
                    help="small windows, skip the NPB panels")
    ap.add_argument("--repeats", type=int, default=5,
                    help="runs per configuration (median recorded)")
    ap.add_argument("--check", action="store_true",
                    help="compare against the committed baseline instead "
                         "of rewriting it (exit 1 on regression)")
    args = ap.parse_args(argv)
    if args.check:
        return check(args.out)
    doc = record(args.out, quick=args.quick, repeats=args.repeats)
    scaling = doc["engine_scaling"]
    growth = (scaling[f"regions/{LANES[-1]}"]["ns_per_step"]
              / scaling["regions/1"]["ns_per_step"])
    print(f"wrote {args.out} "
          f"({len(scaling)} engine rows, "
          f"{len(doc['fig12_steps'])} firing-cost rows; "
          f"ns/step grows {growth:.2f}x from 1 to {LANES[-1]} regions)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
