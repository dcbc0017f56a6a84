"""Record / check the durability-layer baseline, BENCH_durable.json.

What the durable layer costs, measured at five grains:

* **journal append** — the per-submit/per-delivery write-ahead record
  (µs; a frame copied into the mapped journal, one thread);
* **append ÷ frame** — µs per ``SessionStore.append`` ÷ µs to ``_frame``
  the same record's dict, timed in alternating rounds of one run: an
  append formats its record's bytes directly (DECISIONS row 29), and the
  gate is that it stays under ``APPEND_BOUND`` of what framing the dict
  alone costs;
* **handoff append** — the same records journalled the way a serving
  session does, a client thread's ``submit`` intent and a worker thread's
  ``deliver`` record through one :class:`SessionDurability` (µs per
  pair).  Recorded beside the buffered-write journal's reading on the
  host ``HANDOFF_HOST`` names, and not gated: the two overlap in that
  host's slow timing mode, and an absolute ceiling does not carry to
  another host.  That an append makes no system call is pinned by the
  test suite instead (``tests/runtime/test_durable.py``);
* **snapshot save / load** — one generation committed atomically
  (encode + tmp + fsync + rename) and decoded back (ms);
* **durable checkpoint** — the full quiescence cycle of a live,
  *loaded* :class:`~repro.serve.session.FarmSession` (drain in-flight
  work, park the workers, checkpoint, commit, resume) against the
  identical cycle with persistence stubbed out.  The ratio is the
  headline number: under load, the drain-and-park handshake is the
  common floor for both cycles, and the gate is that going to disk
  (encode + tmp + fsync + rename) keeps the durable cycle within
  ``RATIO_BUDGET``× the in-memory one (median-of-N on both sides —
  min would reward the cycles that happened to catch the farm idle).
  An unloaded session would make the comparison meaningless — its
  in-memory cycle is a few µs of flag-flipping, so *any* fsync is
  dozens of times that; the number an operator cares about is the
  checkpoint pause a serving session actually takes.

Usage::

    python benchmarks/bench_durable.py           # full run, rewrite JSON
    python benchmarks/bench_durable.py --quick   # CI-sized run
    python benchmarks/bench_durable.py --check   # regression gate (CI)

``--check`` fails when either gate does: the checkpoint ratio over
``RATIO_BUDGET``, or append ÷ frame over ``APPEND_BOUND``.
"""

import argparse
import json
import os
import pathlib
import statistics
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

DEFAULT_OUT = ROOT / "BENCH_durable.json"

#: Durable checkpoint may cost at most this multiple of the identical
#: gate-and-park cycle without persistence (the ISSUE's acceptance bar).
RATIO_BUDGET = 2.0

#: µs per ``SessionStore.append`` ÷ µs to ``_frame`` the record's dict,
#: median of APPEND_ROUNDS alternating rounds of APPEND_K records each.
#: Twelve ``--check`` runs on HANDOFF_HOST read 0.39–0.42; an append that
#: frames its record's dict again, as before DECISIONS row 29, reads
#: 1.13–1.15 (3/3 fail).
APPEND_BOUND = 0.6
APPEND_ROUNDS = 30
APPEND_K = 1000

#: ``handoff_append`` with the journal written by a buffered ``write`` +
#: ``flush`` per record (each releasing the GIL inside the durability
#: lock), µs per submit+deliver pair, median of five quick runs on
#: HANDOFF_HOST: the reference a reading is recorded beside.
HANDOFF_PARENT_US = 22.32
HANDOFF_HOST = "dev box: 2 cores, x86_64, CPython 3.11.7 (GIL)"

#: Thread pinning needs ``sched_setaffinity`` (Linux); elsewhere the two
#: threads of ``handoff_append`` run wherever the scheduler puts them.
_PIN = hasattr(os, "sched_setaffinity")


def _mk_checkpoint(book_len):
    from repro.connectors import library
    from repro.runtime.ports import Inport, Outport

    conn = library.connector("Merger", 4, default_timeout=10.0)
    conn.connect(
        [Outport(f"b:o{i}") for i in range(len(conn.tail_vertices))],
        [Inport("b:i0")],
    )
    cp = conn.checkpoint()
    conn.close()
    book = [(i + 1, f"value-{i}") for i in range(book_len)]
    return cp, book


def bench_store(appends, book_len, repeats):
    """Journal-append µs and snapshot save/load ms on a scratch store."""
    from repro.runtime.durable import SessionStore

    out = {}
    with tempfile.TemporaryDirectory() as td:
        store = SessionStore(td, "bench")
        cp, book = _mk_checkpoint(book_len)
        saves, loads = [], []
        for r in range(repeats):
            t0 = time.perf_counter()
            gen, nbytes = store.save_snapshot(cp, seq=len(book),
                                              delivered=book)
            saves.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            store.load_snapshot(gen)
            loads.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i in range(appends):
            store.append("deliver", len(book) + i + 1, f"append-{i}")
        append_s = time.perf_counter() - t0
        store.close()
        out["snapshot_bytes"] = nbytes
        out["snapshot_save_ms"] = round(min(saves) * 1e3, 3)
        out["snapshot_load_ms"] = round(min(loads) * 1e3, 3)
        out["journal_append_us"] = round(append_s / appends * 1e6, 2)
        out["journal_appends"] = appends
        out["book_len"] = book_len
    return out


def append_over_frame(rounds=APPEND_ROUNDS, k=APPEND_K):
    """µs per ``SessionStore.append`` ÷ µs to ``_frame`` the same record's
    dict, one sample of each per round, back to back in alternating order;
    the median over rounds, and the rounds' range."""
    import gc

    from repro.runtime.durable import SessionStore, _frame, encode

    values = [f"append-{i}" for i in range(k)]
    ratios = []
    with tempfile.TemporaryDirectory() as td:
        store = SessionStore(td, "gate")
        store.save_snapshot(_mk_checkpoint(0)[0], seq=0)

        def appends(seq):
            t0 = time.perf_counter()
            for i, value in enumerate(values, seq):
                store.append("deliver", i, value)
            return time.perf_counter() - t0

        def frames(seq):
            t0 = time.perf_counter()
            for i, value in enumerate(values, seq):
                _frame({"kind": "deliver", "seq": i, "value": encode(value)})
            return time.perf_counter() - t0

        gc.disable()
        try:
            for r in range(rounds):
                seq = 1 + r * k
                if r % 2:
                    append_s, frame_s = appends(seq), frames(seq)
                else:
                    frame_s, append_s = frames(seq), appends(seq)
                ratios.append(append_s / frame_s)
        finally:
            gc.enable()
            store.close()
    return {"rounds": rounds, "k": k,
            "ratio": round(statistics.median(ratios), 3),
            "min": round(min(ratios), 3), "max": round(max(ratios), 3),
            "bound": APPEND_BOUND}


def bench_handoff_append(pairs, repeats):
    """µs per submit+deliver pair journalled from two threads: the serve
    pattern.  A client thread calls ``on_submit`` and passes each value
    through a queue to a worker thread, which calls ``on_delivered``; both
    go through one :class:`SessionDurability` on a real store, pinned to
    two cores.  The client does not wait for the delivery, as a serving
    client does not, so both threads stay runnable and an append that
    releases the GIL hands it to the other one.  A sample is the time the
    worker takes for ``pairs`` deliveries: median of ``repeats`` samples
    after one warm-up sample."""
    import queue
    import threading

    from repro.runtime.durable import SessionDurability, SessionStore

    cpus = sorted(os.sched_getaffinity(0)) if _PIN else []

    def pin(index):
        if _PIN:
            os.sched_setaffinity(0, {cpus[index % len(cpus)]})

    cp, _ = _mk_checkpoint(0)
    total = pairs * (repeats + 1)
    handoff = queue.SimpleQueue()
    marks = []
    with tempfile.TemporaryDirectory() as td:
        durability = SessionDurability(SessionStore(td, "handoff"))
        durability.commit(cp)

        def worker():
            pin(1)
            for k in range(1, total + 1):
                durability.on_delivered(handoff.get())
                if k % pairs == 0:
                    marks.append(time.perf_counter())

        thread = threading.Thread(target=worker, daemon=True)
        before = os.sched_getaffinity(0) if _PIN else None
        pin(0)
        marks.append(time.perf_counter())
        thread.start()
        try:
            for i in range(total):
                durability.on_submit(i)
                handoff.put(i)
            thread.join(timeout=60.0)
        finally:
            if _PIN:
                os.sched_setaffinity(0, before)
        if thread.is_alive() or len(durability.book()) != total:
            raise RuntimeError("handoff_append: the worker did not finish")
        durability.close()
    us = sorted((b - a) / pairs * 1e6 for a, b in zip(marks[1:], marks[2:]))
    return {"pairs": pairs, "repeats": repeats,
            "us_per_pair": round(statistics.median(us), 2),
            "min_us_per_pair": round(us[0], 2)}


class _NullStore:
    """Store-shaped sink: every durability code path runs, no I/O.

    Gives ``bench_checkpoint_cycle`` its in-memory baseline — the same
    FarmSession quiescence cycle with the persistence calls costing
    nothing.
    """

    def __init__(self, name="bench"):
        self.name = name
        self.fsync = False

    def recover(self):
        from repro.runtime.durable import Recovery

        return Recovery(outcome="fresh")

    def save_snapshot(self, checkpoint, *, seq, delivered=(), suppress=(),
                      resubmit=(), meta=None):
        return 1, 0

    def append(self, kind, seq, value=None):
        pass

    def close(self):
        pass


SERVICE_TIME = 0.005  # per-delivery work: the drain floor of each cycle
FEEDERS = 4           # concurrent submitters, so work is always in flight


def bench_checkpoint_cycle(cycles, values, state_dir):
    """Min-of-N durable_checkpoint latency for one live, loaded session.

    A background submitter keeps work in flight for the whole measurement,
    so every cycle pays the real drain-and-park cost.  ``state_dir=None``
    runs the identical cycle against :class:`_NullStore` (in-memory
    baseline); a real path runs the full disk commit.
    """
    import threading

    from repro.runtime.durable import SessionDurability
    from repro.runtime.errors import ReproRuntimeError
    from repro.runtime.overload import OverloadPolicy
    from repro.serve.service import CoordinatorService

    svc = CoordinatorService(state_dir=state_dir)
    stop = threading.Event()
    try:
        session = svc.open_session("bench", policy=OverloadPolicy("block"),
                                   service_time=SERVICE_TIME)
        if state_dir is None:
            # same wiring as open_session's durable path, minus the disk
            session.durability = SessionDurability(_NullStore())

        def _load():
            i = 0
            while not stop.is_set():
                try:
                    session.submit(f"load-{i}", timeout=10.0)
                except ReproRuntimeError:
                    if stop.is_set():
                        return
                    raise
                i += 1

        feeders = [threading.Thread(target=_load, daemon=True)
                   for _ in range(FEEDERS)]
        for feeder in feeders:
            feeder.start()
        deadline = time.monotonic() + 30.0
        while len(session.delivered) < values:
            assert time.monotonic() < deadline, "warmup starved"
            time.sleep(0.005)
        samples = []
        for _ in range(cycles):
            # let the feeders refill the pipeline: a back-to-back cycle
            # would catch the farm idle and measure nothing but flag flips
            time.sleep(8 * SERVICE_TIME)
            t0 = time.perf_counter()
            session.durable_checkpoint()
            samples.append(time.perf_counter() - t0)
        stop.set()
        for feeder in feeders:
            feeder.join(timeout=15.0)
    finally:
        stop.set()
        svc.close()
    return {
        "cycles": cycles,
        "min_ms": round(min(samples) * 1e3, 3),
        "median_ms": round(statistics.median(samples) * 1e3, 3),
    }


def run(quick: bool) -> dict:
    appends = 2_000 if quick else 20_000
    book_len = 200 if quick else 1_000
    repeats = 5 if quick else 15
    cycles = 10 if quick else 40
    values = 16 if quick else 64

    result = {"spec": {"quick": quick, "appends": appends,
                       "book_len": book_len, "repeats": repeats,
                       "cycles": cycles, "values": values,
                       "ratio_budget": RATIO_BUDGET}}
    result["store"] = bench_store(appends, book_len, repeats)
    result["append_over_frame"] = append_over_frame()
    handoff = bench_handoff_append(2_000, 5)
    handoff.update({
        "host": HANDOFF_HOST,
        "parent_us_per_pair": HANDOFF_PARENT_US,
    })
    result["handoff_append"] = handoff
    with tempfile.TemporaryDirectory() as td:
        result["durable_checkpoint"] = bench_checkpoint_cycle(
            cycles, values, td
        )
    result["inmem_checkpoint"] = bench_checkpoint_cycle(cycles, values, None)
    ratio = (result["durable_checkpoint"]["median_ms"]
             / max(result["inmem_checkpoint"]["median_ms"], 1e-9))
    result["ratio"] = round(ratio, 3)
    result["ok"] = (ratio <= RATIO_BUDGET and
                    result["append_over_frame"]["ratio"] <= APPEND_BOUND)
    return result


def _summary(result) -> str:
    s, h = result["store"], result["handoff_append"]
    a = result["append_over_frame"]
    return (
        f"journal append {s['journal_append_us']}us  "
        f"append / frame {a['ratio']} (bound {APPEND_BOUND})  "
        f"handoff append {h['us_per_pair']}us/pair "
        f"(buffered write {h['parent_us_per_pair']}us on {HANDOFF_HOST})  "
        f"snapshot save {s['snapshot_save_ms']}ms / "
        f"load {s['snapshot_load_ms']}ms ({s['snapshot_bytes']}B)  "
        f"durable ckpt {result['durable_checkpoint']['median_ms']}ms vs "
        f"in-mem {result['inmem_checkpoint']['median_ms']}ms -> "
        f"ratio {result['ratio']} (budget {RATIO_BUDGET})  "
        f"{'ok' if result['ok'] else 'OVER BUDGET'}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(DEFAULT_OUT))
    ap.add_argument("--quick", action="store_true",
                    help="CI-sized sweep")
    ap.add_argument("--check", action="store_true",
                    help="re-measure (quick) and gate on both bounds")
    args = ap.parse_args(argv)

    if args.check:
        result = run(quick=True)
        print(_summary(result))
        print("bench_durable check:", "ok" if result["ok"] else "REGRESSION")
        return 0 if result["ok"] else 1

    result = run(quick=args.quick)
    pathlib.Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    print(f"wrote {args.out}")
    print(_summary(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
