"""``random_posted`` — state-space expansion without threads.

The same single-thread ``post_*`` API as ``lockstep_posted``, but the next
vertex is drawn uniformly, by ``random.Random(seed)``, from the vertices
with no outstanding operation, starting from a *cold* connector.  The rows
have state spaces far larger than what a pass ever caches, so
``automata.lazy`` expansion and ``compiler.steps`` per-state compilation do
the work: the arity blow-up of ROADMAP item 4(b), without any threads.

A seed gives every row ``SCHEDULES`` schedules, which the passes take in
turn: how many states a schedule meets varies by ±10 % on the rows with few,
expensive expansions, and one 600-post schedule a run made ``ops_per_s``
spread 9–12 % over ten seeds where the same seed repeats within 3 %.  Three
schedules of 200 posts spread 6 %, and passes are short enough that every
post is still sampled about ten times in 20 s.

The warm baseline is the lock-step kernel cost of the same connector (a few
cached states, no expansion in the timed part).  LateAsyncReplicator has no
such baseline: driven lock-step its twelve heads drain in an order that
rotates, so it keeps meeting new subsets of full buffers and never warms.
Replaying the schedule on the same, now warm, connector was tried first and
is no baseline either: a posted operation cannot be withdrawn and
``restore`` needs a quiescent engine, so the replay starts where the cold
pass ended and on LateAsyncReplicator/12 still met 40 % new states.
"""

from __future__ import annotations

import random

from harness import (DELIVERY, Ctx, PostedRow, Result, best, build,
                     check_delivery, clock_ns, close, geomean, median, no_gc,
                     passes, row_id, setup_metrics)

ROWS = [("EarlyAsyncMerger", 16), ("LateAsyncRouter", 16),
        ("LateAsyncReplicator", 12), ("EarlyAsyncBarrierMerger", 8)]
BASELINE_ROWS = [r for r in ROWS if r[0] != "LateAsyncReplicator"]
SCHEDULES = 3  # per seed and row
POSTS = 200  # per row and pass
BASELINE_STEPS, BASELINE_SAMPLES = 250, 6  # per row and pass


def cold_pass(ctx: Ctx, parent: int, name: str, n: int, schedule: int,
              traced: bool):
    """Build one connector and run one of the seed's schedules on it.

    Returns ns per post, the connector's stats, and (attempted, failed)
    from the delivery check."""
    tr = ctx.tracer
    row = row_id(name, n)
    with tr.span("suite.setup", row, parent) as sid:
        conn, _, _ = build(tr, sid, name, n)
    engine = conn.engine
    heads, tails = list(conn.head_vertices), list(conn.tail_vertices)
    vertices = heads + tails
    handles = dict.fromkeys(vertices)
    recv_ops: list[list] = [[] for _ in heads]
    posted = [0] * len(tails)
    # passes that repeat a schedule differ by host noise alone, and every
    # count is exact per seed
    rng = random.Random(f"{ctx.seed}/{row}/{schedule}")

    with tr.span("suite.timed", row, parent) as sid:
        post_recv, post_send = engine.post_recv, engine.post_send
        if traced:
            post_recv = tr.wrap(post_recv, "engine.post_recv", sid)
            post_send = tr.wrap(post_send, "engine.post_send", sid)
        with no_gc():
            marks = [clock_ns()]
            for _ in range(POSTS):
                free = [k for k, v in enumerate(vertices)
                        if handles[v] is None or handles[v].done]
                k = free[int(rng.random() * len(free))]
                v = vertices[k]
                if k < len(heads):
                    handles[v] = post_recv(v)
                    recv_ops[k].append(handles[v])
                else:
                    i = k - len(heads)
                    handles[v] = post_send(v, posted[i] * len(tails) + i)
                    posted[i] += 1
                marks.append(clock_ns())
    stats = conn.stats()

    with tr.span("suite.check", row, parent):
        ops = [op for per_head in recv_ops for op in per_head]
        errors = sum(op.error is not None for op in ops)
        errors += sum(handles[v].error is not None
                      for v in tails if handles[v] is not None)
        received = [[op.value for op in per_head if op.done]
                    for per_head in recv_ops]
        sent = [count - (handles[v] is not None and not handles[v].done)
                for count, v in zip(posted, tails)]
        failed = errors + check_delivery(
            DELIVERY[name], sent, received, engine.buffered_total())
    close(tr, parent, conn, row)
    return [b - a for a, b in zip(marks, marks[1:])], stats, (POSTS, failed)


def run(ctx: Ctx) -> Result:
    tr = ctx.tracer
    rows = [row_id(*r) for r in ROWS]
    keys = [(row, k) for row in rows for k in range(SCHEDULES)]
    cold_ns: dict[tuple, list[list[int]]] = {key: [] for key in keys}
    cold_traced_ns: dict[tuple, list[list[int]]] = {key: [] for key in keys}
    stats: dict[tuple, dict] = {}
    attempted = failed = 0
    # The baseline rows live for the whole run and are sampled in every
    # pass, so that their samples spread over the run like the cold ones.
    with tr.span("suite.baseline") as sid:
        baseline = [PostedRow(ctx, sid, name, n) for name, n in BASELINE_ROWS]
    for index, traced in passes(ctx, minimum=SCHEDULES):
        schedule = index % SCHEDULES
        with tr.span("suite.pass", f"pass-{index}") as sid:
            for name, n in ROWS:
                key = (row_id(name, n), schedule)
                posts, stats[key], (a, f) = cold_pass(
                    ctx, sid, name, n, schedule, traced)
                (cold_traced_ns if traced else cold_ns)[key].append(posts)
                attempted += a
                failed += f
            for kernel in baseline:
                for _ in range(BASELINE_SAMPLES):
                    kernel.sample(sid, BASELINE_STEPS)
    for kernel in baseline:
        a, f = kernel.finish(0)
        attempted += a
        failed += f

    def total(stat: str, row: str | None = None) -> int:
        return sum(s[stat] for key, s in stats.items()
                   if row is None or key[0] == row)

    def best_ns(samples: dict, row: str) -> int:
        # Passes that run the same schedule do the same work post by post:
        # the best of each post, summed, is a pass that no slow phase of
        # the host touched.  A row is the sum over its schedules.
        return sum(best(post) for k in range(SCHEDULES)
                   for post in zip(*samples[row, k]))

    cold = {row: best_ns(cold_ns, row) for row in rows}
    us = {row: cold[row] / 1e3 / total("steps", row) for row in rows}
    kernel = {k.row: best(k.us_per_step) for k in baseline}
    setup_s, layers = setup_metrics(tr)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": geomean(1e6 / v for v in us.values()),
        "op_p50_us": median(us.values()),
        "cost_ratio": geomean(us[row] / kernel[row] for row in kernel),
    }

    per_layer = dict(layers)
    per_layer.update({f"row.{row}.us_per_step": v for row, v in us.items()})
    per_layer.update({
        "engine.posted_us_per_step": geomean(kernel.values()),
        "engine.steps": total("steps"),
        "engine.steps_per_post": total("steps") / (POSTS * len(keys)),
        "lazy.expansions": total("expansions"),
        "lazy.timed_expansions": total("expansions"),
        "lazy.cached_states": total("cached_states"),
        "steps.compiled_states": total("compiled_states"),
        # what the cold passes cost beyond the kernel (where it is known:
        # it is a few percent of the time), per state they expanded
        "lazy.us_per_expansion": sum(
            cold[row] / 1e3 - total("steps", row) * kernel.get(row, 0.0)
            for row in rows) / total("expansions"),
    })
    if ctx.trace:
        per_layer.update({
            "engine.post_send_us": tr.leaf_mean_us("engine.post_send"),
            "engine.post_recv_us": tr.leaf_mean_us("engine.post_recv"),
            "trace.overhead_share": geomean(
                best_ns(cold_traced_ns, row) / cold[row]
                for row in rows) - 1.0,
        })
    return Result(end_to_end, per_layer, attempted, failed,
                  detail={"kernel_us": {k.row: k.us_per_step
                                        for k in baseline},
                          "stats": {f"{row}/{k}": s
                                    for (row, k), s in stats.items()}})
