"""``handoff_threads`` — what threads add to the kernel.

Two party threads, pinned to distinct cores, on blocking
``Outport.send``/``Inport.recv``: a producer round-robins over all tails, a
consumer over all heads.  Waiter wake-up, lock hand-off and GIL transfer do
most of the work.  Every row is also driven lock-step by one thread (the
``lockstep_posted`` driver) inside the same pass, so the cost of hand-off is
a subtraction, and ``cost_ratio`` is threaded ÷ posted µs/step.

A threaded row is reported as the *median* of its 50 ms sampling windows,
not the best.  The best window is a streak of hand-offs that found their
partner already waiting: over four sets of ten runs it spread 7–10 % within
a set, window medians 2–5 %.  Neither is immune to the host's speed modes
(set medians of either moved ±7 % over an evening, and in a fifth set,
during which the host changed mode, window medians spread 19 %).

Unpinned, Merger/2 is bimodal (both threads on one core: ~30 µs/step; one
core each: ~95), which is why the parties are pinned.
"""

from __future__ import annotations

import threading
import time
from statistics import mean

from repro.runtime.errors import ProtocolTimeoutError

from harness import (DELIVERY, Ctx, PostedRow, Result, best, build,
                     check_delivery, clock_ns, close, geomean, median, no_gc,
                     passes, percentile, pin, row_id, setup_metrics,
                     tail_percentile)

ROWS = [("Merger", 2), ("EarlyAsyncMerger", 8), ("SequencedMerger", 8),
        ("FifoChain", 8)]
LATENCY_ROW = row_id("Merger", 2)  # pure rendezvous: its sends are timed
WINDOW_S = 0.05
WINDOWS = 16  # per row and pass
RAMP_S = 0.05  # after the producer resumes, before the first window
TICK_S = 0.1  # consumer's recv timeout: how fast it notices "drained"
WARMUP_POLL_S = 0.05
WARMUP_CAP_S = 3.0
BASELINE_STEPS, BASELINE_SAMPLES = 250, 4  # per row, after each row


class Parties:
    """One producer and one consumer thread on a connected connector."""

    def __init__(self, ctx: Ctx, row: str, outs, ins):
        self.ctx, self.row = ctx, row
        self.outs, self.ins = outs, ins
        self.go = threading.Event()  # set: the producer produces
        self.done = False  # producer: leave at the next pause
        self.draining = False  # consumer: leave at the next timeout
        self.traced = False
        self.completed = 0  # sends, over all tails
        self.received: list[list] = [[] for _ in ins]
        self.send_ns: list[int] = []
        self.errors: list[BaseException] = []
        self.threads = [
            threading.Thread(target=self._guard, args=(self._produce, 0),
                             name=f"{row}:producer"),
            threading.Thread(target=self._guard, args=(self._consume, 1),
                             name=f"{row}:consumer"),
        ]
        for thread in self.threads:
            thread.start()

    def _guard(self, body, core: int) -> None:
        pin(threading.get_native_id(), self.ctx.host["cpus"], core)
        with self.ctx.tracer.span("suite.party", self.row) as sid:
            try:
                body(sid)
            except BaseException as exc:  # reported by finish()
                self.errors.append(exc)

    def _produce(self, sid: int) -> None:
        tr = self.ctx.tracer
        plain = [o.send for o in self.outs]
        spanned = [tr.wrap(send, "ports.send", sid) for send in plain]
        width = len(plain)
        latencies = self.send_ns
        while True:
            self.go.wait()
            if self.done:
                return
            sends = spanned if self.traced else plain
            seq, _ = divmod(self.completed, width)
            while self.go.is_set() and not self.done:
                for i, send in enumerate(sends):
                    t0 = clock_ns()
                    send(seq * width + i)
                    latencies.append(clock_ns() - t0)
                    self.completed += 1
                seq += 1

    def _consume(self, sid: int) -> None:
        tr = self.ctx.tracer
        plain = [i.recv for i in self.ins]
        spanned = [tr.wrap(recv, "ports.recv", sid) for recv in plain]
        head = 0
        while True:
            recv = (spanned if self.traced else plain)[head]
            try:
                value = recv(timeout=TICK_S)
            except ProtocolTimeoutError:
                if self.draining:
                    return
                continue
            self.received[head].append(value)
            head = (head + 1) % len(plain)

    def finish(self) -> tuple[list[int], list[list]]:
        """Stop the producer, let the consumer drain, join both; returns
        completed sends per tail and the values received per head."""
        producer, consumer = self.threads
        self.done = True
        self.go.set()
        producer.join(timeout=10.0)
        self.draining = True
        consumer.join(timeout=10.0)
        if producer.is_alive() or consumer.is_alive():
            self.errors.append(TimeoutError(f"{self.row}: party did not end"))
        width = len(self.outs)
        full, part = divmod(self.completed, width)
        return [full + (i < part) for i in range(width)], self.received


def threaded_row(ctx: Ctx, parent: int, name: str, n: int, traced: bool):
    """One fresh connector under two party threads: set-up (build, start,
    run until the lazy product stops growing), ``WINDOWS`` sampling windows
    of ``conn.steps``, then drain and check."""
    tr = ctx.tracer
    row = row_id(name, n)
    with tr.span("suite.setup", row, parent) as sid:
        conn, outs, ins = build(tr, sid, name, n)
        parties = Parties(ctx, row, outs, ins)
        parties.go.set()
        start, quiet, seen = time.perf_counter(), 0, -1
        while quiet < 3 and time.perf_counter() - start < WARMUP_CAP_S:
            time.sleep(WARMUP_POLL_S)
            now = conn.stats()["expansions"]
            quiet = quiet + 1 if now == seen else 0
            seen = now
        parties.go.clear()

    us, late_ms = [], []
    with tr.span("suite.timed", row, parent), no_gc():
        parties.traced = traced
        before = conn.stats()["expansions"]
        first_send = len(parties.send_ns)
        parties.go.set()
        time.sleep(RAMP_S)
        for _ in range(WINDOWS):
            steps, t0 = conn.steps, clock_ns()
            time.sleep(WINDOW_S)
            dt = clock_ns() - t0
            steps = conn.steps - steps
            late_ms.append(dt / 1e6 - WINDOW_S * 1e3)
            if steps:
                us.append(dt / 1e3 / steps)
        parties.go.clear()
        timed_expansions = conn.stats()["expansions"] - before
    stats = conn.stats()

    with tr.span("suite.check", row, parent):
        sent, received = parties.finish()
        failed = len(parties.errors) + (len(us) < WINDOWS) + check_delivery(
            DELIVERY[name], sent, received, conn.engine.buffered_total())
    close(tr, parent, conn, row)
    return {
        "us_per_step": us, "late_ms": late_ms,
        "send_ns": parties.send_ns[first_send:], "stats": stats,
        "timed_expansions": timed_expansions,
        "attempted": sum(sent) + sum(map(len, received)), "failed": failed,
    }


def run(ctx: Ctx) -> Result:
    tr = ctx.tracer
    rows = [row_id(*r) for r in ROWS]
    threaded: dict[str, list[float]] = {row: [] for row in rows}
    threaded_traced: dict[str, list[float]] = {row: [] for row in rows}
    send_ns: list[int] = []
    late_ms: list[float] = []
    first: dict[str, dict] = {}
    attempted = failed = 0
    # The lock-step baseline rows live for the whole run and all of them
    # are sampled after every threaded row, so that their samples spread
    # over the run.
    with tr.span("suite.baseline") as sid:
        baseline = [PostedRow(ctx, sid, name, n) for name, n in ROWS]
    for index, traced in passes(ctx):
        with tr.span("suite.pass", f"pass-{index}") as sid:
            for name, n in ROWS:
                row = row_id(name, n)
                sample = threaded_row(ctx, sid, name, n, traced)
                (threaded_traced if traced else threaded)[row].extend(
                    sample["us_per_step"])
                late_ms.extend(sample["late_ms"])
                if row == LATENCY_ROW and not traced:
                    send_ns.extend(sample["send_ns"])
                for kernel in baseline:
                    for _ in range(BASELINE_SAMPLES):
                        kernel.sample(sid, BASELINE_STEPS)
                attempted += sample["attempted"]
                failed += sample["failed"]
                if index == 0:
                    first[row] = sample
    for kernel in baseline:
        a, f = kernel.finish(0)
        attempted += a
        failed += f

    us = {row: median(values) for row, values in threaded.items()}
    kernel = {k.row: best(k.us_per_step) for k in baseline}
    setup_s, layers = setup_metrics(tr)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": geomean(1e6 / v for v in us.values()),
        "op_p50_us": median(us.values()),
        "cost_ratio": geomean(us[row] / kernel[row] for row in rows),
    }

    handoff = {row: us[row] - kernel[row] for row in rows}
    per_layer = dict(layers)
    per_layer.update({f"row.{row}.us_per_step": v for row, v in us.items()})
    per_layer.update({
        "engine.posted_us_per_step": geomean(kernel.values()),
        "engine.steps_per_post": sum(k.timed_steps for k in baseline)
            / sum(k.timed_posts for k in baseline),
        "lazy.expansions": sum(
            s["stats"]["expansions"] for s in first.values()),
        "lazy.timed_expansions": sum(
            s["timed_expansions"] for s in first.values()),
        "lazy.cached_states": sum(
            s["stats"]["cached_states"] for s in first.values()),
        "steps.compiled_states": sum(
            s["stats"]["compiled_states"] for s in first.values()),
        "ports.send_us": mean(send_ns) / 1e3,
        "ports.send_p50_us": percentile(send_ns, 50) / 1e3,
        "ports.send_p99_us": percentile(
            send_ns, tail_percentile(len(send_ns))) / 1e3,
        "tasks.handoff_us_per_step": mean(handoff.values()),
        "tasks.handoff_us_per_step.Merger-2": handoff[LATENCY_ROW],
        "host.window_late_ms": max(late_ms),
    })
    notes = [f"sampling windows of {WINDOW_S * 1e3:.0f} ms ran at most "
             f"{max(late_ms):.2f} ms late (median "
             f"{percentile(late_ms, 50):.2f} ms)"]
    if ctx.trace:
        per_layer.update({
            "ports.recv_us": tr.leaf_mean_us("ports.recv"),
            "trace.overhead_share": geomean(
                median(threaded_traced[row]) / us[row]
                for row in rows) - 1.0,
        })
    return Result(end_to_end, per_layer, attempted, failed, notes,
                  detail={"threaded_us_per_step": threaded,
                          "posted_us_per_step": {k.row: k.us_per_step
                                                 for k in baseline}})
