"""``lockstep_posted`` — the engine kernel without threads.

One thread drives every party of each connector lock-step through
``engine.post_recv``/``post_send``.  Few control states are visited, so the
lazy product is warm after the 32 warm-up rounds and the timed part is the
kernel alone: pending registry → candidate selection → compiled firing →
buffer move.  The rows span arity 2 → 16 for five connector families, which
gives the paper's scaling-in-N claim as one ratio.
"""

from __future__ import annotations

from harness import (Ctx, PostedRow, Result, best, geomean, median, passes,
                     row_id, setup_metrics)

FAMILIES = ("Replicator", "EarlyAsyncMerger", "Sequencer", "SequencedMerger",
            "Barrier")
ARITIES = (2, 8, 16)
ROWS = [(name, n) for name in FAMILIES for n in ARITIES] \
    + [("Merger", 2), ("FifoChain", 8)]
STEPS = 500  # per timed sample
SAMPLES = 4  # per row and pass
DIAGNOSTIC_PASSES = 3


def run(ctx: Ctx) -> Result:
    tr = ctx.tracer
    rows = [row_id(*r) for r in ROWS]
    plain: dict[str, list[float]] = {row: [] for row in rows}
    traced_us: dict[str, list[float]] = {row: [] for row in rows}
    first: list[PostedRow] = []  # pass 0: the exact per-seed counts
    attempted = failed = 0

    def one_pass(parent: int, into: dict, traced: bool = False, **options):
        nonlocal attempted, failed
        done = []
        for name, n in ROWS:
            row = PostedRow(ctx, parent, name, n, **options)
            for _ in range(SAMPLES):
                into[row.row].append(row.sample(parent, STEPS, traced))
            a, f = row.finish(parent)
            attempted += a
            failed += f
            done.append(row)
        return done

    for index, traced in passes(ctx):
        with tr.span("suite.pass", f"pass-{index}") as sid:
            done = one_pass(sid, traced_us if traced else plain, traced)
            first = first or done

    us = {row: best(values) for row, values in plain.items()}
    setup_s, layers = setup_metrics(tr)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": geomean(1e6 / v for v in us.values()),
        "op_p50_us": median(us.values()),
        "cost_ratio": geomean(
            us[row_id(f, ARITIES[-1])] / us[row_id(f, ARITIES[0])]
            for f in FAMILIES),
    }

    def total(key: str) -> int:
        return sum(row.stats[key] for row in first)

    steps = sum(row.timed_steps for row in first)
    per_layer = dict(layers)
    per_layer.update({f"row.{row}.us_per_step": v for row, v in us.items()})
    per_layer.update({
        "engine.posted_us_per_step": geomean(us.values()),
        "engine.steps": steps,
        "engine.steps_per_post":
            steps / sum(row.timed_posts for row in first),
        "lazy.expansions": total("expansions"),
        "lazy.timed_expansions": total("expansions") - sum(
            row.setup_stats["expansions"] for row in first),
        "lazy.cached_states": total("cached_states"),
        "steps.compiled_states": total("compiled_states"),
    })
    if ctx.trace:
        per_layer.update({
            "engine.post_send_us": tr.leaf_mean_us("engine.post_send"),
            "engine.post_recv_us": tr.leaf_mean_us("engine.post_recv"),
            "trace.overhead_share": geomean(
                best(traced_us[row]) / us[row] for row in rows) - 1.0,
        })
        # A few passes per switch ROADMAP item 3 is to judge: the compiled
        # tier off, and the single-lock scheduler.  Evidence rows; they move
        # no end-to-end metric.
        base = per_layer["engine.posted_us_per_step"]
        with tr.span("suite.diagnostic") as sid:
            variant = {}
            for label, options in (("compiled_off", {"compiled": "off"}),
                                   ("global", {"concurrency": "global"})):
                into = {row: [] for row in rows}
                for _ in range(DIAGNOSTIC_PASSES):
                    one_pass(sid, into, **options)
                variant[label] = geomean(best(v) for v in into.values())
        per_layer.update({
            "engine.us_per_step.compiled_off": variant["compiled_off"],
            "engine.us_per_step.global": variant["global"],
            "steps.speedup": variant["compiled_off"] / base,
            "engine.regions_over_global": base / variant["global"],
        })
    return Result(end_to_end, per_layer, attempted, failed,
                  detail={"us_per_step": plain})
