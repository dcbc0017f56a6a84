"""Analyses over constraint automata.

Two groups of functionality:

* :func:`explore` / :func:`stats` — reachable-fragment exploration and
  size statistics, used by tests and by the benchmark harness to report
  state-space sizes;
* :func:`deadlock_states` — compile-time reachability check for states
  without outgoing transitions.  The paper relies on Reo's external model
  checkers for such properties (§II); this lightweight check stands in for
  that toolchain.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.automaton import ConstraintAutomaton


def explore(automaton: ConstraintAutomaton) -> set[int]:
    """States reachable from the initial state (labels/constraints ignored:
    this is control-reachability, a sound over-approximation)."""
    seen = {automaton.initial}
    frontier = [automaton.initial]
    while frontier:
        s = frontier.pop()
        for t in automaton.outgoing(s):
            if t.target not in seen:
                seen.add(t.target)
                frontier.append(t.target)
    return seen


@dataclass(frozen=True)
class AutomatonStats:
    n_states: int
    n_reachable: int
    n_transitions: int
    max_out_degree: int
    n_vertices: int
    n_buffers: int


def stats(automaton: ConstraintAutomaton) -> AutomatonStats:
    """Size statistics of an automaton (reachable fragment included)."""
    reachable = explore(automaton)
    out_degree = [0] * automaton.n_states
    for t in automaton.transitions:
        out_degree[t.source] += 1
    return AutomatonStats(
        n_states=automaton.n_states,
        n_reachable=len(reachable),
        n_transitions=len(automaton.transitions),
        max_out_degree=max(out_degree, default=0),
        n_vertices=len(automaton.vertices),
        n_buffers=len(automaton.buffers),
    )


def deadlock_states(automaton: ConstraintAutomaton) -> set[int]:
    """Reachable states with no outgoing transition.

    A non-empty result means the connector can get permanently stuck no
    matter what the tasks do.  (States where progress merely *waits* for
    task operations are not deadlocks: their transitions exist but are not
    enabled until operations arrive.)
    """
    return {s for s in explore(automaton) if not automaton.outgoing(s)}
