"""Shared machinery of the benchmark suite: spans, host capture, connector
building, the lock-step posted driver and the delivery checks.

Everything here calls only the public ``repro`` API; the workloads in the
sibling modules are built from these pieces.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import statistics
import sys
import sysconfig
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import repro
from repro import library

clock_ns = time.perf_counter_ns


# --------------------------------------------------------------------------
# Small statistics
# --------------------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def best(costs) -> float:
    """The least of repeated measurements of one cost.

    The dev box is a small guest on a shared host: most of the time the
    same code runs 1.3–2× slower than its best, for seconds to minutes at a
    stretch, invisibly to the guest (steal reads 0).  The noise only ever
    adds time, so the minimum over many *short* samples spread across the
    run repeats, where their median does not: a 20 ms lock-step sample
    measured for 10 s at a time, four times over, gave minima of
    35.4–36.2 µs/step against medians of 53–63.  Samples are therefore
    kept to tens of milliseconds and every cost is reported as its best
    sample.
    """
    return float(min(costs))


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(0, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[rank])


def tail_percentile(n: int) -> float:
    """The highest percentile that still has at least ten samples beyond
    it, for a sample of size ``n`` (choosing-metrics §1)."""
    return 100.0 * max(0.5, 1.0 - 10.0 / n) if n else 50.0


# --------------------------------------------------------------------------
# Spans
# --------------------------------------------------------------------------


class Tracer:
    """In-memory spans: (id, parent id, name, row, start ns, end ns).

    Coarse spans (set-up calls, passes) are always recorded — they are how
    the suite times anything.  Per-call *leaf* spans in hot loops are
    recorded only through :meth:`wrap`, which the workloads use on traced
    passes alone, so an untraced pass runs the bare public calls.  Only the
    first ``LEAF_CAP`` leaf spans are kept; later wrapped calls still pay
    for their clock reads, so tracing overhead stays what it is.
    """

    LEAF_CAP = 400_000

    def __init__(self):
        self._ids = itertools.count(1)
        self.spans: dict[int, list] = {}  # sid -> [parent, name, row, t0, t1]
        self.leaves: list[tuple] = []  # (parent, name, t0, t1)

    @contextmanager
    def span(self, name: str, row: str = "", parent: int = 0):
        sid = next(self._ids)
        rec = [parent, name, row, clock_ns(), 0]
        self.spans[sid] = rec
        try:
            yield sid
        finally:
            rec[4] = clock_ns()

    def wrap(self, fn, name: str, parent: int):
        """``fn`` with a leaf span around every call (list.append is atomic
        under the GIL, so party threads may share one tracer)."""
        leaves, cap = self.leaves, self.LEAF_CAP

        def traced(*args, **kwargs):
            t0 = clock_ns()
            out = fn(*args, **kwargs)
            t1 = clock_ns()
            if len(leaves) < cap:
                leaves.append((parent, name, t0, t1))
            return out

        return traced

    def seconds(self, sid: int) -> float:
        rec = self.spans[sid]
        return (rec[4] - rec[3]) / 1e9

    def leaf_mean_us(self, name: str) -> float:
        """Mean duration of the leaf spans called ``name``."""
        ns = [t1 - t0 for _, n, t0, t1 in self.leaves if n == name]
        return statistics.mean(ns) / 1e3

    def self_ns(self) -> dict[int, int]:
        """Self time per coarse span: duration minus direct children."""
        out = {sid: rec[4] - rec[3] for sid, rec in self.spans.items()}
        for rec in self.spans.values():
            if rec[0]:
                out[rec[0]] -= rec[4] - rec[3]
        for parent, _, t0, t1 in self.leaves:
            out[parent] -= t1 - t0
        return out

    def self_time_share(self) -> float:
        """Σ self time of all spans ÷ Σ duration of the root spans — 1.0
        when every span nests inside its parent and siblings do not
        overlap (party threads are roots of their own for that reason)."""
        covered = sum(self.self_ns().values())
        covered += sum(t1 - t0 for _, _, t0, t1 in self.leaves)
        wall = sum(rec[4] - rec[3] for rec in self.spans.values()
                   if not rec[0])
        return covered / wall

    def dump(self, path: Path, workload: str) -> None:
        """Write every span, with its self time, as one JSON document."""
        self_ns = self.self_ns()
        names = sorted({n for _, n, _, _ in self.leaves})
        index = {n: i for i, n in enumerate(names)}
        doc = {
            "workload": workload,
            "unit": "ns",
            "spans": [
                {"id": sid, "parent": rec[0], "name": rec[1], "row": rec[2],
                 "start": rec[3], "end": rec[4], "self": self_ns[sid]}
                for sid, rec in self.spans.items()
            ],
            # Leaf spans have no children (self == end - start) and inherit
            # the row of their parent; kept columnar because there are
            # hundreds of thousands of them.
            "leaf_names": names,
            "leaves": [[p, index[n], t0, t1] for p, n, t0, t1 in self.leaves],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc))


# --------------------------------------------------------------------------
# Host and run context
# --------------------------------------------------------------------------


def host_info() -> dict:
    cpus = sorted(os.sched_getaffinity(0))
    return {
        "nproc": len(cpus),
        "cpus": cpus,
        "python": sys.version.split()[0],
        "gil": "free-threaded"
        if sysconfig.get_config_var("Py_GIL_DISABLED") else "gil",
        "platform": sys.platform,
    }


def pin(native_id: int, cpus, index: int) -> None:
    """Pin one thread to the ``index``-th allowed core (modulo nproc)."""
    os.sched_setaffinity(native_id, {cpus[index % len(cpus)]})


@contextmanager
def main_pinned(host: dict):
    """Pin the calling thread to the first allowed core for the duration.
    Threads it starts meanwhile inherit the pin."""
    me = threading.get_native_id()
    before = os.sched_getaffinity(me)
    pin(me, host["cpus"], 0)
    try:
        yield
    finally:
        os.sched_setaffinity(me, before)


@dataclass
class Ctx:
    """What a workload gets: its inputs and where to record."""

    seed: int
    seconds: float
    trace: bool
    work_dir: Path
    host: dict
    tracer: Tracer = field(default_factory=Tracer)


@dataclass
class Result:
    end_to_end: dict
    per_layer: dict
    attempted: int
    failed: int
    notes: list = field(default_factory=list)
    #: per-row samples, written next to the trace for whoever wants to look
    detail: dict = field(default_factory=dict)


def passes(ctx: Ctx, minimum: int = 1):
    """Yield ``(index, traced)`` until the time budget is spent.

    A traced run traces every other pass, so that tracing overhead is a
    ratio inside one run, and makes at least twice ``minimum`` passes.  A
    further pass starts only while half of the previous one still fits,
    which bounds the overshoot.
    """
    start = time.perf_counter()
    if ctx.trace:
        minimum *= 2
    last = 0.0
    for index in itertools.count():
        elapsed = time.perf_counter() - start
        if index >= minimum and elapsed + last / 2 > ctx.seconds:
            return
        gc.collect()
        yield index, ctx.trace and index % 2 == 1
        last = time.perf_counter() - start - elapsed


@contextmanager
def no_gc():
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# --------------------------------------------------------------------------
# Building connectors through the public pipeline
# --------------------------------------------------------------------------

#: How each library connector used here maps sends to receives; see
#: :func:`check_delivery`.
DELIVERY = {
    "Merger": "route",
    "EarlyAsyncMerger": "route",
    "EarlyAsyncBarrierMerger": "route",
    "LateAsyncRouter": "route",
    "Replicator": "replicate",
    "LateAsyncReplicator": "replicate",
    "Barrier": "pairwise",
    "SequencedMerger": "pairwise",
    "FifoChain": "pairwise",
    "Sequencer": "sink",
}


def row_id(name: str, n: int) -> str:
    return f"{name}-{n}"


def build(tr: Tracer, parent: int, name: str, n: int, **options):
    """text → AST → compiled program → connector → connected ports, one
    span per public call."""
    row = row_id(name, n)
    source = library.dsl_source(name, n)
    with tr.span("compiler.compile_source", row, parent) as sid:
        with tr.span("lang.parse", row, sid):
            ast = repro.parse(source)
        program = repro.compile_program(ast)
    with tr.span("compiler.instantiate", row, parent):
        conn = program.instantiate_connector(name=name, sizes=n, **options)
    outs, ins = repro.mkports(len(conn.tail_vertices), len(conn.head_vertices))
    with tr.span("connector.connect", row, parent):
        conn.connect(outs, ins)
    return conn, outs, ins


def close(tr: Tracer, parent: int, conn, row: str) -> None:
    with tr.span("connector.close", row, parent):
        conn.close()


SETUP_LAYERS = {
    "lang.parse_s": "lang.parse",
    "compiler.compile_source_s": "compiler.compile_source",
    "compiler.instantiate_s": "compiler.instantiate",
    "connector.connect_s": "connector.connect",
    "connector.close_s": "connector.close",
}


#: Set-up below these spans is not the workload's own.
NOT_SETUP = {"suite.baseline", "suite.diagnostic", "suite.probe"}


def setup_metrics(tr: Tracer) -> tuple[float, dict]:
    """``setup_s`` and the set-up layer metrics.

    Every pass sets every row up afresh, so each row has one span per pass
    for ``suite.setup`` and for each public set-up call; a metric is the
    sum over rows of the row's best span."""
    wanted = {"suite.setup", *SETUP_LAYERS.values()}
    per_row: dict[tuple[str, str], list[int]] = {}
    for rec in tr.spans.values():
        if rec[1] not in wanted:
            continue
        up = rec
        while up[0] and up[1] not in NOT_SETUP:
            up = tr.spans[up[0]]
        if up[1] not in NOT_SETUP:
            per_row.setdefault((rec[1], rec[2]), []).append(rec[4] - rec[3])

    def summed(span: str) -> float:
        return sum(best(ns) for (name, _), ns in per_row.items()
                   if name == span) / 1e9

    return summed("suite.setup"), {
        metric: summed(span) for metric, span in SETUP_LAYERS.items()}


# --------------------------------------------------------------------------
# Delivery checks
# --------------------------------------------------------------------------


def check_delivery(kind: str, sent: list[int], received: list[list],
                   buffered: int) -> int:
    """Count violations of "what was received is what was sent".

    The ``j``-th value sent on tail ``i`` of ``T`` tails is ``j*T + i``;
    ``sent[i]`` counts completed sends and ``received[h]`` lists head
    ``h``'s values in arrival order.  Values sent but not received must be
    exactly the ``buffered`` ones the engine still holds.

    * ``route`` — every value reaches exactly one head; each head sees the
      values of one tail in sending order (mergers, routers).
    * ``replicate`` — one tail; every head receives its sequence, in order.
    * ``pairwise`` — head ``i`` receives tail ``i``'s sequence, in order
      (Barrier, SequencedMerger, FifoChain).
    * ``sink`` — no heads; sends complete in cyclic order (Sequencer).
    """
    tails = len(sent)
    bad = 0
    if kind == "sink":
        ok = all(a >= b for a, b in zip(sent, sent[1:])) \
            and sent[0] - sent[-1] <= 1
        return 0 if ok else 1
    if kind == "route":
        per_tail: list[list[int]] = [[] for _ in range(tails)]
        for values in received:
            last = [-1] * tails
            for v in values:
                seq, tail = divmod(v, tails)
                bad += seq <= last[tail]
                last[tail] = seq
                per_tail[tail].append(seq)
        missing = 0
        for tail, seqs in enumerate(per_tail):
            bad += sorted(seqs) != list(range(len(seqs)))
            bad += len(seqs) > sent[tail]
            missing += sent[tail] - len(seqs)
    else:
        missing = 0
        for head, values in enumerate(received):
            tail = 0 if kind == "replicate" else head
            bad += values != [j * tails + tail for j in range(len(values))]
            bad += len(values) > sent[tail]
            missing += sent[tail] - len(values)
    return bad + (missing != buffered)


# --------------------------------------------------------------------------
# The lock-step posted driver
# --------------------------------------------------------------------------

WARMUP_ROUNDS = 32


class PostedRow:
    """One connector driven lock-step by the calling thread.

    Heads first, then tails, at most one outstanding operation per vertex,
    through ``engine.post_recv``/``post_send``: the final post of a
    synchronous step fires it inside the posting thread, so there is no
    thread hand-off.  Construction builds the connector and runs 32 warm-up
    rounds (set-up); :meth:`sample` times a number of steps; :meth:`finish`
    checks what was delivered and closes.
    """

    def __init__(self, ctx: Ctx, parent: int, name: str, n: int, **options):
        self.tr = ctx.tracer
        self.name, self.row = name, row_id(name, n)
        with self.tr.span("suite.setup", self.row, parent) as sid:
            self.conn, _, _ = build(self.tr, sid, name, n, **options)
            self.engine = self.conn.engine
            self.heads = list(enumerate(self.conn.head_vertices))
            self.tails = list(enumerate(self.conn.tail_vertices))
            self.handles: dict = dict.fromkeys(
                self.conn.head_vertices + self.conn.tail_vertices)
            self.received: list[list] = [[] for _ in self.heads]
            self.posted = [0] * len(self.tails)
            self.us_per_step: list[float] = []
            self.wedged = 0
            self._rounds(lambda count: count >= WARMUP_ROUNDS, WARMUP_ROUNDS,
                         self.engine.post_recv, self.engine.post_send)
            self.setup_stats = self.conn.stats()
        self.setup_posts = self.posts()
        self.setup_steps = self.engine.steps

    def _rounds(self, until, expected: int, post_recv, post_send) -> None:
        handles, received, posted = self.handles, self.received, self.posted
        heads, tails, width = self.heads, self.tails, len(self.tails)
        count = 0
        # A healthy connector fires at least once per round; the cap turns
        # a wedged one into a failed check instead of a hang.
        budget = 4 * expected + 64
        while not until(count):
            if count >= budget:
                self.wedged += 1
                return
            for i, v in heads:
                op = handles[v]
                if op is None:
                    handles[v] = post_recv(v)
                elif op.done:
                    received[i].append(op.value)
                    handles[v] = post_recv(v)
            for i, v in tails:
                op = handles[v]
                if op is None or op.done:
                    handles[v] = post_send(v, posted[i] * width + i)
                    posted[i] += 1
            count += 1

    def posts(self) -> int:
        # every recv post is either collected in ``received`` or is its
        # head's current handle
        return (sum(self.posted) + sum(map(len, self.received))
                + len(self.heads))

    def sample(self, parent: int, steps: int, traced: bool = False) -> float:
        """Time ``steps`` steps; µs per step (also kept on the row)."""
        engine = self.engine
        post_recv, post_send = engine.post_recv, engine.post_send
        with self.tr.span("suite.timed", self.row, parent) as sid, no_gc():
            if traced:
                post_recv = self.tr.wrap(post_recv, "engine.post_recv", sid)
                post_send = self.tr.wrap(post_send, "engine.post_send", sid)
            start = engine.steps
            t0 = clock_ns()
            self._rounds(lambda count: engine.steps - start >= steps, steps,
                         post_recv, post_send)
            dt = clock_ns() - t0
        us = dt / 1e3 / max(engine.steps - start, 1)
        self.us_per_step.append(us)
        return us

    def finish(self, parent: int) -> tuple[int, int]:
        """Check and close; ``(attempted, failed)`` over the row's life.
        ``self.stats`` holds the connector's final stats."""
        self.stats = self.conn.stats()
        self.timed_steps = self.engine.steps - self.setup_steps
        attempted = self.posts()
        self.timed_posts = attempted - self.setup_posts
        with self.tr.span("suite.check", self.row, parent):
            errors = 0
            for i, v in self.heads:
                op = self.handles[v]
                errors += op.error is not None
                if op.done:
                    self.received[i].append(op.value)
            sent = []
            for i, v in self.tails:
                op = self.handles[v]
                errors += op.error is not None
                sent.append(self.posted[i] - (0 if op.done else 1))
            failed = errors + self.wedged + check_delivery(
                DELIVERY[self.name], sent, self.received,
                self.engine.buffered_total())
        close(self.tr, parent, self.conn, self.row)
        return attempted, failed
