"""Stateless synchronous sub-chains composed once at connect
(:func:`repro.automata.partition.merge_stateless`, docs/DECISIONS.md row 16).

Three things hold for the 18 library connectors at N ∈ {2, 3, 8, 16}:

* every merged group is weakly bisimilar to its members' product with the
  inner vertices hidden (and, where the maximal product is small, to that
  too — the rule that keeps a group with component-disjoint minimal steps
  flat is what makes the two agree);
* from every state a bounded BFS reaches, the merged product lists the same
  candidates in the same order as the flat one — same boundary label, same
  firing plan, same successor — so the round-robin cursors, the visited
  states and the checkpoints are those of the flat product;
* a group whose minimal steps include two component-disjoint ones is left
  flat, because the product fires both at once.
"""

from collections import deque

import pytest

from repro.automata.automaton import ConstraintAutomaton, Transition
from repro.automata.bisim import weakly_bisimilar
from repro.automata.constraint import DEFAULT_REGISTRY
from repro.automata.lazy import LazyProduct
from repro.automata.partition import PLACEHOLDER, merge_stateless
from repro.automata.product import compose_outgoing, product
from repro.automata.simplify import shared_plan
from repro.connectors import library
from repro.runtime.ports import mkports

ARITIES = (2, 3, 8, 16)
BFS_STATES = 400


def _cases():
    for name in library.names():
        for n in ARITIES:
            try:
                library.build_graph(name, n)
            except Exception:
                continue
            yield name, n


CASES = list(_cases())


def _flat_and_merged(name, n):
    conn = library.connector(name, n)
    sources = frozenset(conn.tail_vertices)
    sinks = frozenset(conn.head_vertices)
    flat = list(conn.automata)
    return flat, merge_stateless(flat, sources | sinks), sources, sinks


def _groups(flat, merged):
    """``(composite, members, hidden)`` per merged group: a composite's
    members are the positions it and the placeholders took over that are
    joined through the vertices the composite hid."""
    taken = {i for i, a in enumerate(merged) if a is not flat[i]}
    out = []
    for i in sorted(taken):
        composite = merged[i]
        if composite is PLACEHOLDER:
            continue
        members, todo, hidden = {i}, [i], set()
        while todo:
            j = todo.pop()
            inner = flat[j].vertices - composite.vertices
            hidden |= inner
            for k in taken - members:
                if merged[k] is PLACEHOLDER and flat[k].vertices & inner:
                    members.add(k)
                    todo.append(k)
        out.append((composite, [flat[j] for j in sorted(members)],
                    frozenset(hidden)))
    return out


def _plan_value(step, sources, sinks):
    plan = shared_plan(step.label, step.atoms, step.effects,
                       sources, sinks, DEFAULT_REGISTRY)
    return (plan.guards, plan.assigns, plan.checks, plan.pops, plan.pushes,
            plan.deliveries, plan.never, plan.n_slots)


@pytest.mark.parametrize("name,n", CASES)
def test_groups_are_bisimilar_to_their_members(name, n):
    flat, merged, _, _ = _flat_and_merged(name, n)
    assert len(merged) == len(flat)
    for composite, members, hidden in _groups(flat, merged):
        assert composite.n_states == 1 and not composite.buffers
        assert weakly_bisimilar(composite, product(members).hide(hidden))
        if n <= 3:
            assert weakly_bisimilar(
                composite, product(members, mode="maximal").hide(hidden))


@pytest.mark.parametrize("name,n", CASES)
def test_candidates_match_the_flat_product(name, n):
    flat, merged, sources, sinks = _flat_and_merged(name, n)
    if merged == flat:
        return
    hidden = frozenset().union(*(a.vertices for a in flat)) \
        - frozenset().union(*(a.vertices for a in merged))
    flat_p, merged_p = LazyProduct(flat), LazyProduct(merged)
    assert merged_p.initial == flat_p.initial
    seen, todo = {flat_p.initial}, deque([flat_p.initial])
    while todo and len(seen) < BFS_STATES:
        state = todo.popleft()
        want, got = flat_p.outgoing(state), merged_p.outgoing(state)
        assert [s.label - hidden for s in want] == [s.label for s in got]
        assert ([_plan_value(s, sources, sinks) for s in want]
                == [_plan_value(s, sources, sinks) for s in got])
        targets = [s.successor(state) for s in want]
        assert targets == [s.successor(state) for s in got]
        for t in targets:
            if t not in seen:
                seen.add(t)
                todo.append(t)


def test_library_merges_where_the_chains_are():
    """The rows the cold-expansion benchmark runs merge, and the two-party
    rows of the application benchmark do not (nothing to gain there)."""
    def placeholders(name, n):
        return sum(a is PLACEHOLDER for a in _flat_and_merged(name, n)[1])

    assert placeholders("EarlyAsyncMerger", 16) == 14
    assert placeholders("LateAsyncRouter", 16) == 14
    assert placeholders("EarlyAsyncBarrierMerger", 8) == 20
    assert placeholders("EarlyAsyncMerger", 2) == 0
    assert placeholders("FifoChain", 8) == 0


def _stateless(name, labels, vertices):
    return ConstraintAutomaton(
        1, 0, frozenset(vertices),
        tuple(Transition(0, frozenset(label), 0) for label in labels),
        name=name)


def test_component_disjoint_steps_stay_flat():
    """A and B are stateless and joined by inner vertex m; each also fires
    alone, on a and on b.  X (two states) fires a and b together, so the
    product has a step whose part in {A, B} is two disjoint minimal steps —
    which a one-state composite of A and B, having each only alone, cannot
    fire.  The group is left as it is."""
    a = _stateless("A", [{"a"}, {"m"}], {"a", "m"})
    b = _stateless("B", [{"b"}, {"m"}], {"b", "m"})
    x = ConstraintAutomaton(2, 0, frozenset({"a", "b", "c"}), (
        Transition(0, frozenset({"a", "b"}), 1),
        Transition(1, frozenset({"c"}), 0)), name="X")
    steps = compose_outgoing([a, b], [0, 0])
    assert any(s.parts.keys().isdisjoint(t.parts)
               for s in steps for t in steps)
    joint = [s for s in compose_outgoing([x, a, b], [0, 0, 0])
             if s.label == {"a", "b"}]
    assert joint and joint[0].parts.keys() == {0, 1, 2}
    assert merge_stateless([x, a, b], frozenset({"c"})) == [x, a, b]
    # Without the a-b coupling the same pair merges.
    single = _stateless("B", [{"m", "b"}], {"b", "m"})
    merged = merge_stateless([x, a, single], frozenset({"c"}))
    assert merged[2] is PLACEHOLDER
    assert merged[1].vertices == {"a", "b"}
    assert {t.label for t in merged[1].transitions} == {
        frozenset({"a"}), frozenset({"b"})}


def test_boundary_and_shared_vertices_stay_visible():
    """A boundary vertex, or one a stateful automaton also owns, is never
    inner: it stays in the composite's labels."""
    p = _stateless("P", [{"s", "m"}], {"s", "m"})
    q = _stateless("Q", [{"m", "k"}], {"m", "k"})
    r = ConstraintAutomaton(2, 0, frozenset({"k"}), (
        Transition(0, frozenset({"k"}), 1),), name="R")
    merged = merge_stateless([p, q, r], frozenset({"s"}))
    assert merged[1] is PLACEHOLDER and merged[2] is r
    assert [t.label for t in merged[0].transitions] == [{"s", "k"}]


@pytest.mark.parametrize("options,expect", [
    ({}, True),
    ({"composition": "aot"}, False),
])
def test_only_the_jit_minimal_path_merges(options, expect):
    conn = library.connector("EarlyAsyncMerger", 8, **options)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    try:
        region = conn.engine.regions[0]
        lazy = getattr(region, "lazy", None)
        merged = lazy is not None and PLACEHOLDER in lazy.automata
        assert merged is expect
    finally:
        conn.close()
