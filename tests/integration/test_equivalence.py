"""Cross-strategy equivalence matrix.

For a sample of library connectors, the observable protocol must be
identical across: direct graph vs. DSL; existing vs. new approach; JIT vs.
AOT; compiled steps vs. the interpreted drain; unbounded vs. bounded state
cache; and interpreter vs. generated code.
"""

import types

import pytest

from repro.automata.lazy import LRUCache
from repro.compiler import compile_existing, compile_source, generate_python
from repro.compiler.fromgraph import connector_from_graph
from repro.connectors import library

from tests.conftest import maximal_connector, pump


def strategies(name, n):
    """Yield (label, connector factory) pairs for every strategy."""
    yield "graph-jit", lambda: connector_from_graph(library.build_graph(name, n))
    yield "dsl-jit", lambda: library.connector(name, n)
    yield "dsl-aot", lambda: library.connector(name, n, composition="aot")
    yield "dsl-uncompiled", lambda: library.connector(name, n, compiled="off")
    yield "dsl-bounded-cache", lambda: library.connector(
        name, n, cache_factory=lambda: LRUCache(2)
    )
    yield "dsl-maximal", lambda: maximal_connector(name, n)

    def existing():
        compiled = compile_existing(library.dsl_source(name, n), name, sizes=n)
        return compiled.instantiate_connector()

    yield "existing", existing

    def generated():
        src = generate_python(
            compile_source(library.dsl_source(name, n)).protocol(name)
        )
        mod = types.ModuleType("gen")
        exec(compile(src, "<gen>", "exec"), mod.__dict__)
        return mod.make_connector(sizes=n)

    yield "generated", generated


@pytest.mark.parametrize("label_factory", list(strategies("SequencedMerger", 3)),
                         ids=lambda lf: lf[0])
def test_sequenced_merger_equivalence(label_factory):
    _label, factory = label_factory
    conn = factory()
    got = pump(
        conn,
        {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]},
        {0: 2, 1: 2, 2: 2},
    )
    assert got == {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]}


@pytest.mark.parametrize("label_factory", list(strategies("Alternator", 2)),
                         ids=lambda lf: lf[0])
def test_alternator_equivalence(label_factory):
    _label, factory = label_factory
    conn = factory()
    got = pump(conn, {0: ["a0", "a1"], 1: ["b0", "b1"]}, {0: 4})
    assert got[0] == ["a0", "b0", "a1", "b1"]


@pytest.mark.parametrize("label_factory", list(strategies("Replicator", 3)),
                         ids=lambda lf: lf[0])
def test_replicator_equivalence(label_factory):
    _label, factory = label_factory
    conn = factory()
    got = pump(conn, {0: [1, 2]}, {0: 2, 1: 2, 2: 2})
    assert got[0] == got[1] == got[2] == [1, 2]


@pytest.mark.parametrize("label_factory", list(strategies("FifoChain", 3)),
                         ids=lambda lf: lf[0])
def test_fifo_chain_equivalence(label_factory):
    label, factory = label_factory
    conn = factory()
    got = pump(conn, {0: list(range(7))}, {0: 7})
    assert got[0] == list(range(7))
    if label == "dsl-bounded-cache":
        # No step of a fifo chain leads back to the state before it, so
        # under LRUCache(2) each of the 28 steps evicts and re-expands,
        # whatever the threads' schedule; the chain has 8 states in all.
        jit = library.connector("FifoChain", 3)
        pump(jit, {0: list(range(7))}, {0: 7})
        assert conn.stats()["expansions"] > jit.stats()["expansions"]


def test_graph2text_roundtrip_behaviour():
    """Graph → text → compile must behave like the original graph."""
    from repro.lang.graph2text import graph_to_text

    built = library.build_graph("SequencedMerger", 2)
    text = graph_to_text(built.graph, built.tails, built.heads, name="RT")
    conn = compile_source(text).instantiate_connector("RT")
    got = pump(conn, {0: ["a"], 1: ["b"]}, {0: 1, 1: 1})
    assert got == {0: ["a"], 1: ["b"]}
