"""``serve_durable`` — the hosted, durable session.

``CoordinatorService(state_dir=...)`` with one session of one worker, policy
``block``, no service time; the main thread is the single closed-loop
client.  It submits blocks of values with a ``durable_checkpoint`` after
each block; the same loop against a service without ``state_dir`` is the
in-memory baseline.  ``serve.session`` (gate, park) and ``runtime.durable``
(journal, snapshot) do the work, the engine almost none.

The client is pinned to the first core and the session's worker thread to
the second: unpinned the pair is bimodal (one core: ~16 µs a submit, two:
~55).  A cost is the median of its 200-submit chunks: here the best chunk
follows the host's speed modes just as much as the median does (8 % between
two sets of ten runs, either way) and is the noisier of the two.
"""

from __future__ import annotations

import random
import shutil
import threading
import time

from repro.runtime.durable import SessionStore
from repro.runtime.overload import OverloadPolicy
from repro.serve.service import CoordinatorService

from harness import (Ctx, Result, best, build, clock_ns, close, main_pinned,
                     median, no_gc, passes, percentile, pin, row_id,
                     setup_metrics, tail_percentile)

WARMUP = 200  # submits, part of set-up
BLOCKS = 4  # per loop and pass; a durable checkpoint follows each
CHUNKS = 10  # per block
CHUNK = 200  # submits timed together
DRAIN_S = 10.0
#: what the session's connector is, for the set-up layer spans
SESSION_CONNECTOR = ("EarlyAsyncRouter", 1)


def serve_loop(ctx: Ctx, parent: int, index: int, durable: bool,
               traced: bool, base: int):
    """Open a service and a session, warm up, run the blocks, drain, close,
    check.  Returns per-chunk seconds, per-submit ns, checkpoint ms, the
    session connector's stats and (attempted, failed)."""
    tr = ctx.tracer
    row = "durable" if durable else "inmem"
    state_dir = ctx.work_dir / f"state-{index}" if durable else None
    before = set(threading.enumerate())
    with tr.span("suite.setup", row, parent) as sid:
        service = CoordinatorService(state_dir=state_dir)
        with tr.span("serve.open_session", row, sid):
            session = service.open_session(
                "bench", workers=1, policy=OverloadPolicy("block"),
                service_time=0.0)
        for thread in set(threading.enumerate()) - before:
            pin(thread.native_id, ctx.host["cpus"], 1)
        outcomes = [session.submit(base + k) for k in range(WARMUP)]

    chunk_s, submit_ns, checkpoint_ms = [], [], []
    with tr.span("suite.timed", row, parent) as sid, no_gc():
        submit = session.submit
        if traced:
            submit = tr.wrap(submit, "serve.submit", sid)
        k = WARMUP
        for _ in range(BLOCKS):
            for _ in range(CHUNKS):
                start = clock_ns()
                t0 = start
                for k in range(k, k + CHUNK):
                    outcomes.append(submit(base + k))
                    t1 = clock_ns()
                    submit_ns.append(t1 - t0)
                    t0 = t1
                k += 1
                chunk_s.append((t0 - start) / 1e9)
            if durable:
                with tr.span("serve.durable_checkpoint", row, sid) as cp:
                    service.durable_checkpoint("bench")
                checkpoint_ms.append(tr.seconds(cp) * 1e3)

    with tr.span("suite.check", row, parent):
        ok = outcomes.count("ok")
        deadline = time.monotonic() + DRAIN_S
        while len(session.delivered) < ok and time.monotonic() < deadline:
            time.sleep(0.005)
        stats = session.connector.stats()
        service.close()
        delivered = session.delivered
        accounted = (len(delivered) + len(session.dead_letters())
                     + len(session.dropped))
        failed = (len(outcomes) - ok) + (accounted != ok) \
            + (len(delivered) - len(set(delivered)))
    if state_dir is not None:
        shutil.rmtree(state_dir, ignore_errors=True)
    return chunk_s, submit_ns, checkpoint_ms, stats, (len(outcomes), failed)


def run(ctx: Ctx) -> Result:
    tr = ctx.tracer
    # distinct values, different for every seed
    base = random.Random(ctx.seed).getrandbits(32) << 24
    chunks = {True: [], False: []}  # durable? -> seconds per chunk
    chunks_traced = []
    submits = {True: [], False: []}
    checkpoints: list[float] = []
    stats: dict = {}
    attempted = failed = 0
    with main_pinned(ctx.host):
        for index, traced in passes(ctx):
            with tr.span("suite.pass", f"pass-{index}") as sid:
                with tr.span("suite.setup", "connector", sid) as setup:
                    conn, _, _ = build(tr, setup, *SESSION_CONNECTOR)
                    close(tr, setup, conn, row_id(*SESSION_CONNECTOR))
                for durable in (True, False):
                    chunk_s, submit_ns, cps, loop_stats, (a, f) = serve_loop(
                        ctx, sid, index, durable, traced, base)
                    attempted += a
                    failed += f
                    if traced and durable:
                        chunks_traced.extend(chunk_s)
                    elif not traced:
                        chunks[durable].extend(chunk_s)
                        submits[durable].extend(submit_ns)
                        checkpoints.extend(cps)
                    if index == 0 and durable:
                        stats = loop_stats
        probes = store_probes(ctx) if ctx.trace else {}

    durable_s, inmem_s = median(chunks[True]), median(chunks[False])
    setup_s, layers = setup_metrics(tr)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": CHUNK / durable_s,
        "op_p50_us": percentile(submits[True], 50) / 1e3,
        "cost_ratio": durable_s / inmem_s,
    }

    per_layer = dict(layers)
    per_layer.update(probes)
    per_layer.update({
        "serve.open_session_s": best(
            rec[4] - rec[3] for rec in tr.spans.values()
            if rec[1] == "serve.open_session" and rec[2] == "durable") / 1e9,
        "serve.submits_per_s": CHUNK / durable_s,
        "serve.submit_inmem_p50_us": percentile(submits[False], 50) / 1e3,
        "serve.submit_p99_us": percentile(
            submits[True], tail_percentile(len(submits[True]))) / 1e3,
        "serve.durable_over_inmem": durable_s / inmem_s,
        "serve.checkpoint_p50_ms": median(checkpoints),
        "engine.steps": stats["steps"],
        "lazy.expansions": stats["expansions"],
        "lazy.cached_states": stats["cached_states"],
        "steps.compiled_states": stats["compiled_states"],
    })
    if ctx.trace:
        per_layer["trace.overhead_share"] = \
            median(chunks_traced) / durable_s - 1.0
    return Result(end_to_end, per_layer, attempted, failed,
                  detail={"durable_chunk_s": chunks[True],
                          "inmem_chunk_s": chunks[False],
                          "checkpoint_ms": checkpoints})


def store_probes(ctx: Ctx, book_len: int = 1000, appends: int = 2000,
                 repeats: int = 5) -> dict:
    """The pieces a durable checkpoint is made of, each on its own: a
    connector checkpoint/restore (EarlyAsyncMerger/8 with every buffer
    full), a snapshot save/load and journal appends on a scratch store."""
    tr = ctx.tracer
    with tr.span("suite.probe") as sid:
        conn, _, _ = build(tr, sid, "EarlyAsyncMerger", 8)
        for k, vertex in enumerate(conn.tail_vertices):
            conn.engine.post_send(vertex, k)
        took: dict[str, list[float]] = {
            "connector.checkpoint": [], "connector.restore": [],
            "durable.snapshot_save": [], "durable.snapshot_load": []}

        def timed(name: str, fn, *args, **kwargs):
            with tr.span(name, "", sid) as span:
                result = fn(*args, **kwargs)
            took[name].append(tr.seconds(span) * 1e3)
            return result

        store = SessionStore(ctx.work_dir / "probe-store", "probe")
        book = [(k + 1, f"value-{k}") for k in range(book_len)]
        for _ in range(repeats):
            cp = timed("connector.checkpoint", conn.checkpoint)
            timed("connector.restore", conn.restore, cp)
            gen, size = timed("durable.snapshot_save", store.save_snapshot,
                              cp, seq=book_len, delivered=book)
            timed("durable.snapshot_load", store.load_snapshot, gen)
        with tr.span("durable.journal_append", "", sid) as span:
            for k in range(appends):
                store.append("deliver", book_len + k + 1, f"append-{k}")
        store.close()
        conn.close()
        shutil.rmtree(ctx.work_dir / "probe-store", ignore_errors=True)
        out = {f"{name}_ms": best(ms) for name, ms in took.items()}
        out["durable.snapshot_bytes"] = size
        out["durable.journal_append_us"] = tr.seconds(span) * 1e6 / appends
    return out
