"""Ablation — minimal vs. maximal global-step enumeration.

DESIGN.md calls out one deliberate design decision beyond the paper: our
product enumerates *minimal* synchronization sets (independent transitions
interleave), while the textbook product (the paper's) also contains every
joint firing of independent parts.  A connector only ever runs the minimal
one; the maximal one is a mode of the product
(``compose_outgoing(..., mode="maximal")``, ``product(..., mode=...)``),
which is where this ablation measures it:

* identical observable behaviour (asserted by the equivalence tests, whose
  ``dsl-maximal`` strategy runs a maximal product as a connector's one
  automaton);
* per-state expansion cost: linear vs. exponential in the number of
  independent enabled transitions;
* end-to-end throughput on a buffered many-party connector.
"""

import pytest

from repro.automata.product import compose_outgoing, product
from repro.bench.harness import drive_connector
from repro.compiler.fromgraph import compile_graph
from repro.connectors import library
from repro.runtime.connector import RuntimeConnector


@pytest.mark.parametrize("mode", ["minimal", "maximal"])
@pytest.mark.parametrize("k", [6, 10])
def test_expansion_cost(benchmark, mode, k):
    smalls = compile_graph(library.build_graph("EarlyAsyncMerger", k))
    initial = [a.initial for a in smalls]

    def expand():
        return len(compose_outgoing(smalls, initial, mode))

    n_steps = benchmark(expand)
    if mode == "minimal":
        assert n_steps == k  # one accept per empty producer fifo
    else:
        assert n_steps == 2**k - 1  # every nonempty subset
    benchmark.extra_info["transitions"] = n_steps


def merger(mode, n):
    """EarlyAsyncMerger(n) as a connector — on its maximal product, made at
    the product level, when ``mode`` says so."""
    conn = library.connector("EarlyAsyncMerger", n)
    if mode == "minimal":
        return conn
    return RuntimeConnector([product(conn.automata, mode="maximal")],
                            conn.tail_vertices, conn.head_vertices)


@pytest.mark.parametrize("mode", ["minimal", "maximal"])
def test_throughput(benchmark, mode, n=6):
    def run():
        return drive_connector(lambda: merger(mode, n), window_s=0.15)

    sample = benchmark.pedantic(run, rounds=1, iterations=1)
    assert not sample.failed
    benchmark.extra_info["steps_per_s"] = round(sample.rate)


def test_minimal_mode_scales_where_maximal_cannot(once):
    """At n = 20 producers the maximal initial expansion alone would need
    2^20 - 1 transitions; minimal stays linear and serves traffic."""

    def run():
        sample = drive_connector(
            lambda: library.connector("EarlyAsyncMerger", 20), window_s=0.2
        )
        return sample

    sample = once(run)
    assert not sample.failed
    assert sample.steps > 0
    print(f"\nEarlyAsyncMerger(20), minimal mode: "
          f"{sample.rate:.0f} steps/s (maximal mode would expand "
          f"{2**20 - 1} transitions before the first step)")
