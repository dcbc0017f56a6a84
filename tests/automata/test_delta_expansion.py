"""A new state of a JIT region is built from its predecessor's row
(docs/DECISIONS.md row 17): only the components the firing moved, and the
ones whose memoised closures read one of them, are composed and compiled
again; every other segment is the predecessor's.

For the 18 library connectors at N ∈ {2, 3, 8, 16}, on every edge of a
bounded BFS from the initial state, the delta row holds the very
``ComposedStep`` objects, in the same order, and the very ``CompiledStep``
entries that a full expansion and compile of the same state on the same
memo give — also when the memo is cleared (over ``MEMO_CAP``) between the
predecessor and the successor, where the delta falls back to a full
expansion.
"""

from collections import deque

import pytest

from repro.automata.lazy import LazyProduct
from repro.automata.product import MEMO_CAP
from repro.connectors import library
from repro.runtime.engine import LazyRegion
from repro.runtime.ports import mkports

ARITIES = (2, 3, 8, 16)
BFS_STATES = 400
#: states whose every out-edge is checked across a forced memo clear
CLEARED_STATES = 40


def _cases():
    for name in library.names():
        for n in ARITIES:
            try:
                library.build_graph(name, n)
            except Exception:
                continue
            yield name, n


CASES = list(_cases())


def _regions(name, n):
    """``(automata, step compiler)`` per compiled JIT region of the
    connected connector (the compiler is bound to its engine)."""
    conn = library.connector(name, n)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    engine = conn.engine
    out = [(r.lazy.automata, engine._step_compiler) for r in engine.regions
           if isinstance(r, LazyRegion) and r.compiled]
    return conn, out


def _same_row(delta, full):
    assert delta.state == full.state
    assert len(delta.steps) == len(full.steps)
    assert all(a is b for a, b in zip(delta.steps, full.steps))
    assert len(delta.entries) == len(full.entries)
    assert all(a is b for a, b in zip(delta.entries, full.entries))


def _walk(automata, compiler, limit, clear):
    """BFS from the initial state; on every edge compare the delta row
    with a full one.  Returns ``(edges, recomposed segments)``, the latter
    summed over the edges a delta did not fall back on."""
    lazy = LazyProduct(automata)
    memo = lazy._memo
    rows = {lazy.initial: compiler.compile_state(lazy.initial, lazy.first)}
    todo = deque([lazy.initial])
    edges = redone = 0
    while todo:
        state = todo.popleft()
        came = rows[state]
        for at, step in enumerate(came.steps):
            target = step.successor(state)
            if clear:
                memo.entries = MEMO_CAP + 1  # the next composition clears
            expansion = lazy.expand(target, came, at)
            if clear:
                assert expansion[2] is None  # nothing to reuse after a clear
            elif expansion[2] is not None:
                redone += len(expansion[2])
            delta = compiler.compile_state(target, expansion, came)
            full = compiler.compile_state(target, lazy.expand(target))
            _same_row(delta, full)
            edges += 1
            if target not in rows and len(rows) < limit:
                rows[target] = delta
                todo.append(target)
    return edges, redone


@pytest.mark.parametrize("name,n", CASES)
def test_delta_rows_equal_full_rows(name, n):
    conn, regions = _regions(name, n)
    try:
        for automata, compiler in regions:
            _walk(automata, compiler, BFS_STATES, clear=False)
    finally:
        conn.close()


@pytest.mark.parametrize("name,n", CASES)
def test_delta_rows_equal_full_rows_across_a_memo_clear(name, n):
    conn, regions = _regions(name, n)
    try:
        for automata, compiler in regions:
            _walk(automata, compiler, CLEARED_STATES, clear=True)
    finally:
        conn.close()


def test_a_delta_recomposes_what_the_firing_changed():
    """On the wide rows of the cold-expansion benchmark a new state
    recomposes one to three of its 10–17 segments, not all of them."""
    for name, n in (("EarlyAsyncMerger", 16), ("LateAsyncRouter", 16),
                    ("EarlyAsyncBarrierMerger", 8)):
        conn, [(automata, compiler)] = _regions(name, n)
        try:
            edges, redone = _walk(automata, compiler, 60, clear=False)
        finally:
            conn.close()
        assert edges and redone / edges <= 3, (name, n, redone / edges)
