"""Reachability, deadlock detection, statistics."""

from repro.automata.analysis import deadlock_states, explore, stats
from repro.automata.automaton import ConstraintAutomaton, Transition


def auto(n_states, transitions, initial=0, vertices=None):
    vs = vertices or {v for t in transitions for v in t.label}
    return ConstraintAutomaton(
        n_states, initial, frozenset(vs), tuple(transitions)
    )


def test_explore_reachable_only():
    a = auto(
        3,
        [Transition(0, frozenset({"x"}), 1)],
        vertices={"x"},
    )
    assert explore(a) == {0, 1}  # state 2 unreachable


def test_deadlock_states():
    a = auto(
        3,
        [
            Transition(0, frozenset({"x"}), 1),
            Transition(1, frozenset({"x"}), 2),
        ],
        vertices={"x"},
    )
    assert deadlock_states(a) == {2}


def test_no_deadlock_in_cyclic():
    a = auto(2, [
        Transition(0, frozenset({"x"}), 1),
        Transition(1, frozenset({"y"}), 0),
    ], vertices={"x", "y"})
    assert deadlock_states(a) == set()


def test_stats():
    a = auto(3, [
        Transition(0, frozenset({"x"}), 1),
        Transition(0, frozenset({"y"}), 1),
        Transition(1, frozenset({"x"}), 0),
    ], vertices={"x", "y"})
    s = stats(a)
    assert s.n_states == 3
    assert s.n_reachable == 2
    assert s.n_transitions == 3
    assert s.max_out_degree == 2
    assert s.n_vertices == 2
