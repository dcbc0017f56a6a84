"""RuntimeConnector: composition strategies, regions, caches."""

import pytest

from repro.automata.lazy import LRUCache
from repro.compiler import compile_source
from repro.connectors import library
from repro.runtime.ports import mkports
from repro.util.errors import CompilationBudgetExceeded

from tests.conftest import pump


CHAIN = "P(a;b) = Fifo1(a;v) mult Fifo1(v;w) mult Fifo1(w;b)"


def test_jit_vs_aot_same_behaviour():
    prog = compile_source(CHAIN)
    for composition in ("jit", "aot"):
        conn = prog.instantiate_connector("P", composition=composition)
        got = pump(conn, {0: [1, 2, 3]}, {0: 3})
        assert got[0] == [1, 2, 3]


def test_invalid_composition_rejected():
    prog = compile_source(CHAIN)
    with pytest.raises(ValueError):
        prog.instantiate_connector("P", composition="eager")


def test_aot_respects_state_budget():
    conn = library.connector(
        "EarlyAsyncMerger", 8, composition="aot", state_budget=10
    )
    outs, ins = mkports(8, 1)
    with pytest.raises(CompilationBudgetExceeded):
        conn.connect(outs, ins)


TWO_CHAINS = ("P(a1,a2;b1,b2) = Fifo1(a1;v) mult Fifo1(v;b1) "
              "mult Fifo1(a2;w) mult Fifo1(w;b2)")


def region_buffers(region):
    return {b.name for a in region.lazy.automata for b in a.buffers}


@pytest.mark.parametrize("n", [2, 8, 16])
def test_regions_are_connected_components(n):
    """A connector's regions are the connected components of its medium
    automata, whatever the caller asks: every library connector is one, and
    a program of two chains is two regions sharing no vertex and no
    buffer, each firing on its own."""
    for name in library.names():
        conn = library.connector(name, n)
        conn.connect(*mkports(len(conn.tail_vertices),
                              len(conn.head_vertices)))
        assert len(conn.engine.regions) == 1, name
        conn.close()
    for composition in ("jit", "aot"):
        conn = compile_source(TWO_CHAINS).instantiate_connector(
            "P", composition=composition)
        outs, ins = mkports(2, 2)
        conn.connect(outs, ins)
        first, second = conn.engine.regions
        assert first.vertices.isdisjoint(second.vertices)
        mine, theirs = region_buffers(first), region_buffers(second)
        assert mine and theirs and mine.isdisjoint(theirs)
        assert mine | theirs == set(conn.engine.buffers.names())
        assert conn.engine._route["a1"] is conn.engine._route["b1"] is first
        assert conn.engine._route["a2"] is conn.engine._route["b2"] is second
        outs[1].send("y")
        assert ins[1].recv() == "y" and first.fired == 0
        conn.close()


def test_partitioning_same_behaviour_as_monolithic():
    """SequencedMerger delivers every party's values in order (once run
    partitioned and not; a connector is now always its components)."""
    conn = library.connector("SequencedMerger", 3)
    got = pump(
        conn,
        {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]},
        {0: 2, 1: 2, 2: 2},
    )
    assert got == {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]}


def test_bounded_cache_connector_still_correct():
    conn = library.connector(
        "FifoChain", 4, cache_factory=lambda: LRUCache(2)
    )
    got = pump(conn, {0: list(range(20))}, {0: 20})
    assert got[0] == list(range(20))
    # with only 2 cached expansions over >4 visited states, evictions happened
    conn.close()


def test_steps_property_before_connect():
    conn = compile_source(CHAIN).instantiate_connector("P")
    assert conn.steps == 0
    assert conn.stats() == {}
