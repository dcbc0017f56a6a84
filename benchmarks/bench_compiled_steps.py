"""Two-tier Fig. 12 sweep: interpretive engine vs compiled step functions.

Measures ns per global execution step for the four representative Fig. 12
connectors under ``compiled="off"`` (the interpretive
:meth:`~repro.runtime.engine.CoordinatorEngine._fire_one_interp` tier) and
``compiled="auto"`` (the specialized per-region step functions emitted by
:mod:`repro.compiler.steps`), using the same driver for both so the ratio
isolates the firing engine.

**Two measurements.**

* ``sweep()`` — the *firing cost*: stage a backlog of pending operations
  directly into the engine's queues (the white-box discipline the rr-
  fairness tests use), then time one drain to quiescence.  Every timed
  nanosecond is spent in the step-firing loop — candidate scan, guard
  evaluation, data movement, completion — which is exactly the code the
  step compiler replaces.  This is the number ``benchmarks/record.py``
  records and CI gates on (geomean compiled speedup ≥ 4.4×).

* ``sweep_posted()`` — the *end-to-end cost* over the public
  ``post_send``/``post_recv`` API, single-threaded and self-pacing (at
  most one outstanding op per boundary vertex).  Includes per-op handle
  construction, routing, locking, and policy checks, which the compiler
  does not touch — so the ratio here is structurally smaller.  Reported
  for honesty; not gated.

Both drains happen after a warmup pass so lazy regions' JIT-compiled state
tables are populated outside the timed window (the steady state; a cold
window would charge compilation to the first few thousand steps).

Usage::

    python benchmarks/bench_compiled_steps.py              # both tables
    python benchmarks/bench_compiled_steps.py --steps 20000
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time

CONNECTORS = ("Replicator", "EarlyAsyncMerger", "Sequencer",
              "SequencedMerger")
NS = (2, 8)
TIERS = ("off", "auto")


def _build(name: str, n: int, compiled: str):
    from repro.connectors import library
    from repro.runtime.ports import mkports

    conn = library.connector(name, n, compiled=compiled)
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    return conn


# --------------------------------------------------------------------------
# Firing cost: staged backlogs, one timed drain
# --------------------------------------------------------------------------


def _stage(conn, k: int) -> None:
    """Queue ``k`` sends per tail and ``k × tails`` recvs per head directly
    (white-box; the engine is idle).  The surplus recvs keep heads from
    ever being the bottleneck; leftovers simply stay pending."""
    from repro.runtime.engine import _Op

    engine = conn.engine
    for v in conn.tail_vertices:
        q = engine._pending_send[v]
        region = engine._route[v]
        for i in range(k):
            q.append(_Op(v, i))
        region.pend[v] = None
        region.dirty = True
    surplus = k * max(1, len(conn.tail_vertices))
    for v in conn.head_vertices:
        q = engine._pending_recv[v]
        region = engine._route[v]
        for _ in range(surplus):
            q.append(_Op(v))
        region.pend[v] = None
        region.dirty = True


def _drain(conn) -> tuple[int, float]:
    """Drain every dirty region to quiescence the way ``_enqueue`` would —
    region lock held — and time it."""
    engine = conn.engine
    start = engine.steps
    t0 = time.perf_counter()
    for region in engine.regions:
        if region.dirty:
            region.lock.acquire()
            try:
                engine._drain_region(region)
            finally:
                region.lock.release()
    dt = time.perf_counter() - t0
    return engine.steps - start, dt


def measure_firing(name: str, n: int, compiled: str, backlog: int,
                   repeats: int) -> float:
    """Min ns/step over ``repeats`` timed drains on one warm connector."""
    conn = _build(name, n, compiled)
    samples = []
    try:
        _stage(conn, min(backlog, 200))
        _drain(conn)  # warmup: plan caches / JIT state tables
        for _ in range(repeats):
            _stage(conn, backlog)
            gc.disable()
            try:
                steps, dt = _drain(conn)
            finally:
                gc.enable()
            if steps:
                samples.append(dt / steps * 1e9)
    finally:
        try:
            conn.close()
        except Exception:
            pass
    return min(samples)


def sweep(backlog: int = 2000, repeats: int = 3) -> dict:
    """``{"name/n": {"interp_ns": .., "compiled_ns": .., "speedup": ..}}``
    for the staged-drain firing cost (the gated measurement)."""
    rows = {}
    for name in CONNECTORS:
        for n in NS:
            interp = measure_firing(name, n, "off", backlog, repeats)
            comp = measure_firing(name, n, "auto", backlog, repeats)
            rows[f"{name}/{n}"] = {
                "interp_ns": round(interp, 1),
                "compiled_ns": round(comp, 1),
                "speedup": round(interp / comp, 2),
            }
    return rows


# --------------------------------------------------------------------------
# End-to-end cost: self-pacing post-driven loop (not gated)
# --------------------------------------------------------------------------


def drive_steps(conn, target_steps: int) -> tuple[int, float]:
    """Drive ``conn`` single-threaded until ≥ ``target_steps`` global steps.

    Keeps at most one outstanding operation per boundary vertex and
    re-posts as it completes — works for every connector shape (a
    Sequencer fires one tail per round, a Replicator needs all parties)
    without accumulating unbounded backlogs."""
    engine = conn.engine
    tails = list(conn.tail_vertices)
    heads = list(conn.head_vertices)
    outstanding: dict[str, object] = {}

    def pump_round(k: int) -> None:
        # Heads first so a synchronous step completes on the tail's post.
        for v in heads:
            op = outstanding.get(v)
            if op is None or op.done:
                outstanding[v] = engine.post_recv(v)
        for v in tails:
            op = outstanding.get(v)
            if op is None or op.done:
                outstanding[v] = engine.post_send(v, k)

    for k in range(32):  # warmup: plan caches / compiled tables
        pump_round(k)
    start_steps = engine.steps
    t0 = time.perf_counter()
    k = 32
    while engine.steps - start_steps < target_steps:
        pump_round(k)
        k += 1
    dt = time.perf_counter() - t0
    return engine.steps - start_steps, dt


def measure_posted(name: str, n: int, compiled: str, target_steps: int,
                   repeats: int) -> float:
    """Median end-to-end ns/step over ``repeats`` fresh connectors."""
    samples = []
    for _ in range(repeats):
        conn = _build(name, n, compiled)
        gc.disable()
        try:
            steps, dt = drive_steps(conn, target_steps)
        finally:
            gc.enable()
            conn.close()
        samples.append(dt / steps * 1e9)
    return statistics.median(samples)


def sweep_posted(target_steps: int = 5000, repeats: int = 3) -> dict:
    rows = {}
    for name in CONNECTORS:
        for n in NS:
            interp = measure_posted(name, n, "off", target_steps, repeats)
            comp = measure_posted(name, n, "auto", target_steps, repeats)
            rows[f"{name}/{n}"] = {
                "interp_ns": round(interp, 1),
                "compiled_ns": round(comp, 1),
                "speedup": round(interp / comp, 2),
            }
    return rows


def geomean_speedup(rows: dict) -> float:
    ratios = [r["speedup"] for r in rows.values()]
    prod = 1.0
    for r in ratios:
        prod *= r
    return prod ** (1.0 / len(ratios))


def _print_table(title: str, rows: dict) -> None:
    print(title)
    print(f"{'connector':>20} {'interp ns':>10} {'compiled ns':>12} "
          f"{'speedup':>8}")
    for key, r in rows.items():
        print(f"{key:>20} {r['interp_ns']:>10.0f} {r['compiled_ns']:>12.0f} "
              f"{r['speedup']:>7.2f}x")
    print(f"{'geomean speedup:':>20} {geomean_speedup(rows):.2f}x\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--steps", type=int, default=5000,
                    help="steps per end-to-end window / staged backlog size")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--firing-only", action="store_true",
                    help="skip the slower end-to-end sweep")
    args = ap.parse_args(argv)
    _print_table("firing cost (staged drain; the gated measurement):",
                 sweep(args.steps, args.repeats))
    if not args.firing_only:
        _print_table("end-to-end cost (post-driven; not gated):",
                     sweep_posted(args.steps, args.repeats))
    return 0


if __name__ == "__main__":
    sys.exit(main())
