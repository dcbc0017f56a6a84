"""Experiment E4 — §V.C point 3: the partitioning optimization (ref [32]).

The paper's NPB runs fail for N ∈ {16, 32, 64}: "the large automaton for
the connector has some states with a number of transitions exponential in
the number of slaves; just-in-time composition does not help, because once
such a state is reached, it is expanded, which requires computing its
exponentially many transitions.  This problem can be overcome by extending
the new compiler with another existing optimization technique [32]."

Both halves are measured on the textbook (maximal) product itself
(``compose_outgoing(..., mode="maximal")``, ``product(..., mode=...)``); a
connector only ever runs the minimal one.  Here: (a) the micro-phenomenon —
per-state expansion cost in the maximal product explodes with the number
of independent enabled transitions, while partitioned regions expand
independently; (b) the macro-result — the automata of the Reo-based CG's
connectors at larger N, maximal products, monolithic vs. per partitioned
region.
"""

import time

import pytest

from repro.automata.partition import partition_automata
from repro.automata.product import compose_outgoing, product
from repro.compiler import compile_source
from repro.connectors.graph import Arc
from repro.connectors.library import dsl_source
from repro.connectors.primitives import build_automaton
from repro.npb.common import make_gather


def independent_fifos(k):
    return [
        build_automaton(Arc("fifo1", (f"a{i}",), (f"b{i}",)), f"q{i}")
        for i in range(k)
    ]


def small_automata(name: str, n: int):
    """Library connector ``name``'s primitives at ``n`` parties, each its
    own small automaton — what ref [32]'s analysis partitions."""
    proto = compile_source(dsl_source(name, n)).protocol(name)
    return proto.automata_for(proto.default_bindings(n), granularity="small")


def initial_expansion(automata) -> int:
    """Transitions of the maximal product's initial state."""
    return len(compose_outgoing(automata, [a.initial for a in automata],
                                "maximal"))


def expansion_cost_monolithic(k: int) -> int:
    return initial_expansion(independent_fifos(k))


def expansion_cost_partitioned(k: int) -> int:
    return sum(map(initial_expansion,
                   partition_automata(independent_fifos(k))))


@pytest.mark.parametrize("k", [4, 8, 12])
def test_monolithic_expansion(benchmark, k):
    steps = benchmark.pedantic(expansion_cost_monolithic, args=(k,),
                               rounds=1, iterations=1)
    assert steps == 2**k - 1  # exponentially many transitions per state
    benchmark.extra_info["transitions"] = steps


@pytest.mark.parametrize("k", [4, 8, 12, 64])
def test_partitioned_expansion(benchmark, k):
    steps = benchmark.pedantic(expansion_cost_partitioned, args=(k,),
                               rounds=1, iterations=1)
    assert steps == 2 * k  # linear: writer + reader half per fifo
    benchmark.extra_info["transitions"] = steps


def test_partitioning_rescues_npb_at_larger_n(once):
    """The macro-result: the CG broadcast and gather connectors up to
    N = 12, maximal products, per partitioned region.

    The gather's monolithic maximal product has 2^N − 1 transitions from
    its initial state alone; partitioned, every region's whole maximal
    product is counted — states, transitions and the widest state — and
    all three grow linearly in N: the regions never co-enumerate
    independent fifos.
    """

    def run():
        rows = {}
        for n in (4, 8, 12):
            for what in ("Replicator", "EarlyAsyncMerger"):
                regions = partition_automata(small_automata(what, n))
                larges = [product(r, mode="maximal") for r in regions]
                rows[what, n] = (
                    len(regions),
                    sum(a.n_states for a in larges),
                    sum(len(a.transitions) for a in larges),
                    max(len(a.outgoing(s)) for a in larges
                        for s in range(a.n_states)))
        t0 = time.perf_counter()
        monolithic = initial_expansion(make_gather(12).automata)
        return rows, monolithic, time.perf_counter() - t0

    rows, monolithic, secs = once(run)
    print()
    for (what, n), (regions, states, transitions, widest) in rows.items():
        print(f"  CG {what}, N={n}: {regions} regions, {states} states, "
              f"{transitions} transitions, widest state {widest}")
        if what == "EarlyAsyncMerger":
            assert (regions, states, transitions, widest) == (
                n + 1, n + 1, 2 * n, n)
        else:
            assert transitions == widest == 1
    print(f"  CG make_gather, N=12, monolithic: {monolithic} transitions "
          f"from the initial state alone ({secs:.2f}s)")
    assert monolithic == 2**12 - 1


def test_monolithic_maximal_blows_up_demonstrably(once):
    """Directly exhibit the blow-up at a size where it is measurable but
    bounded: expansion cost doubles per added slave."""

    def run():
        costs = {}
        for k in (10, 12, 14):
            t0 = time.perf_counter()
            n_steps = expansion_cost_monolithic(k)
            costs[k] = (n_steps, time.perf_counter() - t0)
        return costs

    costs = once(run)
    print()
    for k, (steps, secs) in costs.items():
        print(f"  k={k}: {steps} transitions from one state, {secs:.3f}s")
    assert costs[14][0] + 1 == 4 * (costs[12][0] + 1)  # 2^k - 1 transitions
    # partitioned stays linear even at k=64 (asserted in the micro-bench)
