"""The row-driven drain loop fires what the un-indexed interpreter fires.

Every library connector is taken through a seeded random posted schedule
under ``compiled="auto"`` (rows, successor links, in-row cursors, the
posted-vertex hint) and ``compiled="off"`` (the interpretive tier: a table
lookup, a cursor-table read and a full candidate scan per iteration — the
reference).  Completion order, step counts, cursor tables and checkpoint
bytes must be identical, also across the cold paths that write what the
rows cache (``restore``, ``leave``), composed just in time or ahead of time.
"""

import json
import random

import pytest

from repro.automata.lazy import FIFOCache, LRUCache, RandomCache
from repro.connectors import library
from repro.runtime.durable import checkpoint_to_data
from repro.runtime.ports import mkports

pytestmark = pytest.mark.fault_stress

POSTS = 400
CUTS = (80, 160, 240, 320)
SUITE_FAMILIES = ("Replicator", "EarlyAsyncMerger", "Sequencer",
                  "SequencedMerger", "Barrier")
JIT_CASES = [(name, n) for name in library.names() for n in (2, 3, 8)] + [
    (name, 16) for name in SUITE_FAMILIES]
#: Composed ahead of time an N-fifo connector has 2^N states: small arities.
AOT_CASES = [(name, n) for name in library.names() for n in (2, 3)]


class Posted:
    """A connector driven by one thread through ``post_*``: the next vertex
    is drawn from those with nothing outstanding; when every vertex waits,
    or at a cut, whatever is outstanding is withdrawn the way a timeout
    would.  ``log`` is everything observable, in order."""

    def __init__(self, name, n, seed=0, **options):
        self.conn = library.connector(name, n, **options)
        self.outs, self.ins = mkports(len(self.conn.tail_vertices),
                                      len(self.conn.head_vertices))
        self.conn.connect(self.outs, self.ins)
        self.rng = random.Random(f"{name}/{n}/{seed}")
        self.waiting: dict = {}  # vertex -> (post number, handle)
        self.posted = 0
        self.log: list = []

    def collect(self):
        for v in sorted(self.waiting):
            number, op = self.waiting[v]
            if op.done:
                del self.waiting[v]
                self.log.append(("done", number, v, op.value))

    def settle(self):
        """Withdraw what is outstanding: quiescent afterwards."""
        engine = self.conn.engine
        for v in sorted(self.waiting):
            number, op = self.waiting[v]
            if engine._withdraw_expired(engine.binding(v), op):
                self.log.append(("withdrawn", number, v))
            self.collect()  # the head behind it may have fired
        self.collect()
        self.waiting.clear()

    def cut(self) -> bytes:
        self.settle()
        cp = self.conn.checkpoint(name="cut")
        engine = self.conn.engine
        self.log.append(("cut", engine.steps,
                         [sorted(r.cursors.items()) for r in engine.regions]))
        data = json.dumps(checkpoint_to_data(cp), sort_keys=True).encode()
        self.log.append(data)
        return cp

    def posts(self, count, cuts=()):
        engine = self.conn.engine
        tails = self.conn.tail_vertices
        vertices = tails + self.conn.head_vertices
        checkpoints = []
        for i in range(count):
            if i in cuts:
                checkpoints.append(self.cut())
            free = [v for v in vertices if v not in self.waiting]
            if not free:
                self.settle()
                free = vertices
            v = self.rng.choice(free)
            self.posted += 1
            op = (engine.post_send(v, self.posted) if v in tails
                  else engine.post_recv(v))
            self.waiting[v] = (self.posted, op)
            self.collect()
            assert_pend_exact(engine)
        return checkpoints

    def finish(self):
        self.cut()
        self.conn.close()
        return self.log


def assert_pend_exact(engine):
    """``region.pend`` is exactly the region's vertices with an operation
    queued — the width skip of the hinted scan counts on it."""
    queued: dict = {r.idx: set() for r in engine.regions}
    for qmap in (engine._pending_send, engine._pending_recv):
        for v, q in qmap.items():
            if q:
                queued[engine._route[v].idx].add(v)
    assert {r.idx: set(r.pend) for r in engine.regions} == queued


def history(name, n, **options):
    run = Posted(name, n, **options)
    run.posts(POSTS, CUTS)
    return run.finish()


@pytest.mark.parametrize("name,n", JIT_CASES)
def test_jit_rows_fire_what_the_interpreter_fires(name, n):
    assert history(name, n, compiled="auto") == history(
        name, n, compiled="off")


@pytest.mark.parametrize("name,n", AOT_CASES)
def test_aot_rows_fire_what_the_interpreter_fires(name, n):
    reference = history(name, n, compiled="off", composition="aot")
    assert history(name, n, compiled="auto", composition="aot") == reference


@pytest.mark.parametrize("name,n", [(f, 8) for f in SUITE_FAMILIES]
                         + [("Merger", 3), ("LateAsyncRouter", 8)])
@pytest.mark.parametrize("composition", ["jit", "aot"])
def test_restore_reseats_warm_rows(name, n, composition):
    """Back to the second cut on a connector whose rows, links and cursors
    are from 240 posts later: the continuation is a fresh connector's."""
    if composition == "aot" and name == "EarlyAsyncMerger":
        n = 3
    warm = Posted(name, n, composition=composition)
    cp = warm.posts(POSTS, CUTS)[1]
    warm.settle()
    fresh = Posted(name, n, composition=composition)
    for run in (warm, fresh):
        run.conn.restore(cp)
        run.log.clear()
        run.rng.seed("continued")
        run.posted = 0
        run.posts(POSTS // 2, (100,))
    assert warm.finish() == fresh.finish()


@pytest.mark.parametrize("name,n", [("Merger", 3), ("EarlyAsyncMerger", 8),
                                    ("Sequencer", 8), ("Alternator", 3)])
def test_leave_mid_run_matches_the_interpreter(name, n):
    logs = []
    for compiled in ("auto", "off"):
        run = Posted(name, n, compiled=compiled)
        run.posts(POSTS // 2, (100,))
        run.settle()
        run.conn.leave(run.outs[1])
        run.posts(POSTS // 2, (100,))
        logs.append(run.finish())
    assert logs[0] == logs[1]


BOUNDED_CASES = [("EarlyAsyncMerger", 8), ("LateAsyncReplicator", 6)]
CACHES = {"lru": LRUCache, "fifo": FIFOCache, "random": RandomCache}


@pytest.mark.parametrize("name,n", BOUNDED_CASES)
def test_bounded_tables_evict_the_rows_new_states_are_built_from(name, n):
    """A bounded table of 2–4 rows evicts the row a new state was just
    built from — storing the new row may push it out — while the drain
    still holds it: completions, steps, cursors and checkpoint bytes are
    those of an unbounded table and of the interpreter.  A random table
    does evict it there; an LRU table never does (the drain has just read
    or stored that row: it is the most recent one), nor does a FIFO table
    on a schedule that never returns to an older state."""
    reference = history(name, n, compiled="off")
    assert history(name, n) == reference
    evicted: dict = {kind: [] for kind in CACHES}
    for kind, cache in CACHES.items():
        for capacity in (2, 3, 4):
            run = Posted(name, n, cache_factory=lambda: cache(capacity))
            (region,) = run.conn.engine.regions
            lazy, table = region.lazy, region.table
            expand, put = lazy.expand, table.put
            came_from = []

            def expanding(state, came=None, at=None):
                came_from.append(came)
                return expand(state, came, at)

            def putting(state, row):
                put(state, row)
                came = came_from[-1] if came_from else None
                if came is not None:
                    evicted[kind].append(all(s != came.state
                                             for s, _ in table.items()))

            lazy.expand, table.put = expanding, putting
            run.posts(POSTS, CUTS)
            assert run.finish() == reference, (kind, capacity)
    assert any(evicted["random"])
