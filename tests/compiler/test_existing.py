"""The existing compilation approach: per-N compilation, large automata,
budget failures (§III.B, §V.B)."""

import pytest

from repro.compiler.existing import compile_existing
from repro.connectors import library
from repro.runtime.ports import mkports
from repro.util.errors import CompilationBudgetExceeded

from tests.conftest import pump


def test_large_automaton_per_n(fig9_source):
    for n in (2, 3):
        ex = compile_existing(fig9_source, "ConnectorEx11N", sizes=n)
        assert ex.automaton.n_states >= 2
        assert len(ex.tail_vertices) == n
        assert len(ex.head_vertices) == n


def test_labels_hidden_to_boundary(fig9_source):
    ex = compile_existing(fig9_source, "ConnectorEx11N", sizes=2)
    boundary = set(ex.tail_vertices) | set(ex.head_vertices)
    for t in ex.automaton.transitions:
        assert t.label <= boundary


def test_connect_adopts_the_compiled_automaton():
    """The large automaton is composed and hidden once: `connect` runs it
    as it is, with no second (empty) hide rebuilding every transition."""
    ex = compile_existing(
        library.dsl_source("EarlyAsyncMerger", 3), "EarlyAsyncMerger",
        sizes=3)
    conn = ex.instantiate_connector()
    conn.connect(*mkports(len(ex.tail_vertices), len(ex.head_vertices)))
    try:
        (region,) = conn.engine.regions
        assert region.automaton is ex.automaton
    finally:
        conn.close()


def test_behaviour_matches_new_approach(fig9_source):
    ex = compile_existing(fig9_source, "ConnectorEx11N", sizes=3)
    conn = ex.instantiate_connector()
    got = pump(
        conn,
        {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]},
        {0: 2, 1: 2, 2: 2},
    )
    assert got == {0: ["a0", "a1"], 1: ["b0", "b1"], 2: ["c0", "c1"]}


def test_state_budget_failure():
    src = library.dsl_source("EarlyAsyncMerger")
    with pytest.raises(CompilationBudgetExceeded):
        compile_existing(src, "EarlyAsyncMerger", sizes=12, state_budget=100)


def test_state_count_exponential_in_n():
    """EarlyAsyncMerger(n) has 2^n reachable states — the §V.B killer."""
    src = library.dsl_source("EarlyAsyncMerger")
    sizes = {}
    for n in (2, 3, 4, 5):
        ex = compile_existing(src, "EarlyAsyncMerger", sizes=n)
        sizes[n] = ex.automaton.n_states
    assert sizes[3] == 2 * sizes[2]
    assert sizes[4] == 2 * sizes[3]
    assert sizes[5] == 2 * sizes[4]


def test_sequenced_merger_states_linear(fig9_source):
    """The running example's seq ring keeps its state space linear — the
    existing approach handles it at any N."""
    counts = {
        n: compile_existing(fig9_source, "ConnectorEx11N", sizes=n).automaton.n_states
        for n in (2, 4, 8)
    }
    assert counts[8] <= 4 * counts[2]


def test_aot_connector_uses_single_region(fig9_source):
    ex = compile_existing(fig9_source, "ConnectorEx11N", sizes=2)
    conn = ex.instantiate_connector()
    from repro.runtime.ports import mkports

    outs, ins = mkports(2, 2)
    conn.connect(outs, ins)
    assert conn.stats()["regions"] == 1
    assert conn.stats()["expansions"] == 0  # nothing lazy about it
    conn.close()
