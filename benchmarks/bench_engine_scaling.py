"""Experiment E8 — engine scaling in the number of regions.

Pins the scheduler's perf acceptance criterion: **per-step cost is flat
in the region count**.  Dispatch is O(1) per op (the vertex→region routing
table), a firing scans only its own region's candidates, and a region
whose dirty flag is clear is skipped without a scan — so 8 disjoint lanes
must cost about what 1 lane costs per step (ns/step at 8 lanes ≤ 1.25×
at 1 lane).  That is what the old "≥ 2× over ``concurrency="global"``"
pin was protecting: the separate serial scheduler it compared against
rescanned every region after every firing (9 → 40 µs/step from 1 to 8
lanes) and has been removed; ``"global"`` now runs this same code with
one shared lock, so it is no longer a different row (docs/DECISIONS.md).

The workload is the canonical multi-region shape from
``tests/runtime/test_engine_regions.py``: k disjoint fifo chains in one
connector, one region per chain (its connected components).  The driver
is single-threaded and deterministic, so the numbers are engine
bookkeeping, not scheduling luck — and not concurrency either: with one
driver thread nothing ever fires in parallel.  Chain depth 4 makes every
value cost ``depth+1`` firings.

``python -m pytest benchmarks/bench_engine_scaling.py -s`` prints the
sweep table; ``benchmarks/record.py`` persists it to BENCH_engine.json.
"""

import os
import time

import pytest

from repro.compiler.fromgraph import connector_from_graph
from repro.connectors.graph import Arc, ConnectorGraph
from repro.connectors.library import BuiltConnector
from repro.runtime.ports import mkports

LANES = (1, 2, 4, 8)
DEPTH = 4          # firings per value: depth pushes + 1 final pop
# CI's bench-smoke job shrinks the run via the environment.
VALUES = int(os.environ.get("BENCH_ENGINE_VALUES", "300"))
REPEATS = int(os.environ.get("BENCH_ENGINE_REPEATS", "5"))

FLATNESS_BUDGET = 1.25   # ns/step at 8 lanes ≤ 1.25× ns/step at 1 lane


def lanes_connector(k: int, depth: int = DEPTH):
    graph = ConnectorGraph()
    tails, heads = [], []
    for lane in range(k):
        for i in range(1, depth + 1):
            graph = graph.add(
                Arc("fifo1", (f"l{lane}x{i - 1}",), (f"l{lane}x{i}",), ())
            )
        tails.append(f"l{lane}x0")
        heads.append(f"l{lane}x{depth}")
    built = BuiltConnector(graph, tuple(tails), tuple(heads))
    return connector_from_graph(built, name=f"Lanes{k}")


def pump_once(k: int, values: int = VALUES):
    """One deterministic pump of k lanes; returns (steps, seconds).

    Single caller thread, alternating a send and a recv round across all
    lanes: every op completes synchronously (chain capacity > 1), so the
    measurement window contains engine work only — no parked threads, no
    wakeup round trips.
    """
    conn = lanes_connector(k)
    outs, ins = mkports(k, k)
    conn.connect(outs, ins)
    send = [o.send for o in outs]
    recv = [i.recv for i in ins]
    t0 = time.perf_counter()
    for j in range(values):
        for i in range(k):
            send[i](j)
        for i in range(k):
            recv[i]()
    dt = time.perf_counter() - t0
    steps = conn.steps
    conn.close()
    return steps, dt


def measure(k: int, repeats: int = REPEATS):
    """Best-of-``repeats`` ns/step and aggregate steps/s for k lanes."""
    best = None
    for _ in range(repeats):
        steps, dt = pump_once(k)
        if best is None or dt < best[1]:
            best = (steps, dt)
    steps, dt = best
    return {
        "lanes": k,
        "steps": steps,
        "ns_per_step": dt / steps * 1e9,
        "steps_per_s": steps / dt,
    }


def run_scaling_sweep(lanes=LANES, repeats=REPEATS):
    """The full sweep; rows keyed by lane count."""
    return {k: measure(k, repeats=repeats) for k in lanes}


def render(rows) -> str:
    lines = [
        f"{'lanes':>5} {'steps':>8} {'ns/step':>10} {'steps/s':>12}"
        f" {'vs 1 lane':>10}"
    ]
    base = rows[min(rows)]["ns_per_step"]
    for k, r in sorted(rows.items()):
        ratio = r["ns_per_step"] / base
        lines.append(
            f"{k:>5} {r['steps']:>8} {r['ns_per_step']:>10.0f}"
            f" {r['steps_per_s']:>12.0f} {ratio:>9.2f}x"
        )
    return "\n".join(lines)


@pytest.mark.parametrize("k", LANES)
def test_lanes_are_k_regions(k):
    conn = lanes_connector(k)
    conn.connect(*mkports(k, k))
    try:
        assert len(conn.engine.regions) == k
    finally:
        conn.close()


def test_engine_scaling_sweep(benchmark):
    """The sweep + the flatness pin, recorded via extra_info."""

    rows = benchmark.pedantic(run_scaling_sweep, rounds=1, iterations=1)
    print()
    print(render(rows))

    for k, r in rows.items():
        benchmark.extra_info[f"regions_{k}_ns_per_step"] = round(
            r["ns_per_step"], 1
        )
        benchmark.extra_info[f"regions_{k}_steps_per_s"] = round(
            r["steps_per_s"]
        )
    # Every lane does identical protocol work: steps scale exactly with k.
    for k in LANES:
        assert rows[k]["steps"] == k * rows[1]["steps"]

    growth = rows[LANES[-1]]["ns_per_step"] / rows[1]["ns_per_step"]
    benchmark.extra_info["ns_per_step_growth_1_to_8"] = round(growth, 3)
    assert growth <= FLATNESS_BUDGET, (
        f"per-step cost grows {growth:.2f}x from 1 to {LANES[-1]} lanes"
    )


@pytest.mark.parametrize("k", LANES)
def test_region_throughput(benchmark, k):
    """Per-size rows for ``--benchmark-only`` output."""
    r = benchmark.pedantic(
        measure, args=(k,), kwargs={"repeats": 3},
        rounds=1, iterations=1,
    )
    benchmark.extra_info["ns_per_step"] = round(r["ns_per_step"], 1)
    benchmark.extra_info["steps_per_s"] = round(r["steps_per_s"])
