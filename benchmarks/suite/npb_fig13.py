"""``npb_fig13`` — what connectors cost an application.

NPB CG and LU, classes S and W, at N = 2 (the master is mostly blocked, so
at most two threads are runnable): ``run_original`` (hand-written
synchronization) and ``run_reo`` (generated connectors) alternate, and every
result must verify.  ``run_reo`` builds, connects and closes its connectors
inside its own timer, so the set-up layers count here — the paper's Fig. 13
and the user's real question.

The kernels start their own threads, which inherit the main thread's pin to
one core.  Left to the OS, cg/S flips between 25 ms and 78 ms a run (within
one process) with the cores its slaves happen to land on: at this size the
time is hand-off, and a hand-off across cores costs three times one within a
core.
"""

from __future__ import annotations

from statistics import mean

from repro.npb import cg, lu

from harness import (Ctx, Result, best, build, close, geomean, main_pinned,
                     no_gc, passes, setup_metrics)

PROGRAMS = {"cg": cg, "lu": lu}
ROWS = [(program, clazz) for program in PROGRAMS for clazz in ("S", "W")]
NPROCS = 2
PAIRS = 3  # original/reo pairs per row and pass
#: the library connectors ``run_reo`` instantiates (broadcast, gather)
PROTOCOL = [("Replicator", NPROCS), ("EarlyAsyncMerger", NPROCS)]


def row_of(program: str, clazz: str) -> str:
    return f"{program}-{clazz}-{NPROCS}"


def run(ctx: Ctx) -> Result:
    with main_pinned(ctx.host):
        return measure(ctx)


def measure(ctx: Ctx) -> Result:
    tr = ctx.tracer
    rows = [row_of(*r) for r in ROWS]
    original: dict[str, list[float]] = {row: [] for row in rows}
    reo: dict[str, list[float]] = {row: [] for row in rows}
    steps: dict[str, int] = {}
    expansions: dict[str, int] = {}
    attempted = failed = 0

    def one(module, variant: str, clazz: str, row: str, parent: int):
        nonlocal attempted, failed
        with tr.span(f"npb.run_{variant}", row, parent), no_gc():
            result = getattr(module, f"run_{variant}")(clazz, NPROCS)
        attempted += 1
        failed += result.verified is not True
        return result

    for index, _ in passes(ctx):
        with tr.span("suite.pass", f"pass-{index}") as sid:
            # Set-up: what run_reo does before its first send, through the
            # same public calls, then one untimed pair per row (problem
            # generation, compiled-program caches, numpy warm).
            with tr.span("suite.setup", "protocol", sid) as setup:
                for name, n in PROTOCOL:
                    conn, _, _ = build(tr, setup, name, n)
                    close(tr, setup, conn, f"{name}-{n}")
            for program, clazz in ROWS:
                row = row_of(program, clazz)
                with tr.span("suite.setup", row, sid) as setup:
                    one(PROGRAMS[program], "original", clazz, row, setup)
                    one(PROGRAMS[program], "reo", clazz, row, setup)
            with tr.span("suite.timed", "", sid) as timed:
                for _ in range(PAIRS):
                    for program, clazz in ROWS:
                        row = row_of(program, clazz)
                        module = PROGRAMS[program]
                        original[row].append(
                            one(module, "original", clazz, row, timed).seconds)
                        result = one(module, "reo", clazz, row, timed)
                        reo[row].append(result.seconds)
                        if result.extra:  # cg reports its connectors' stats
                            stats = result.extra.values()
                            steps[row] = sum(s["steps"] for s in stats)
                            expansions[row] = sum(
                                s["expansions"] for s in stats)

    reo_s = {row: best(values) for row, values in reo.items()}
    original_s = {row: best(values) for row, values in original.items()}
    ratio = {row: reo_s[row] / original_s[row] for row in rows}
    setup_s, layers = setup_metrics(tr)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": geomean(1.0 / v for v in reo_s.values()),
        "op_p50_us": 1e6 * geomean(reo_s.values()),
        "cost_ratio": geomean(ratio.values()),
    }

    per_layer = dict(layers)
    per_layer.update({f"row.{row}.reo_over_original": v
                      for row, v in ratio.items()})
    per_layer.update({
        "npb.reo_s": geomean(reo_s.values()),
        "npb.original_s": geomean(original_s.values()),
        "npb.connector_steps": sum(steps.values()),
        # over the rows that report connector steps
        "npb.us_per_step": 1e6 * mean(
            (reo_s[row] - original_s[row]) / steps[row] for row in steps),
        "engine.steps": sum(steps.values()),
        "lazy.expansions": sum(expansions.values()),
        "lazy.timed_expansions": sum(expansions.values()),
    })
    # trace.overhead_share stays 0: spans wrap whole kernel runs, in traced
    # and untraced runs alike, at two clock reads per run.
    return Result(end_to_end, per_layer, attempted, failed,
                  detail={"reo_s": reo, "original_s": original})
