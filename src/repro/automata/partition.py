"""The partitioning optimization (ref [32], paper §V.C point 3).

The paper's NPB experiments fail for N ∈ {16, 32, 64} because "the large
automaton for the connector has some states with a number of transitions
exponential in the number of slaves".  The fix the paper points to is the
technique of ref [32]: "static analysis of the small automata (linear
complexity), before they are composed …; based on this analysis, the set of
small automata is partitioned, after which only automata in the same subset
are composed".

Our implementation:

1. Automata marked *decouplable* (fifo-like primitives, which never fire
   both of their ends in one step) are replaced by their **decoupled form**:
   two single-state half-automata — a writer half (``NotFull`` guard +
   ``Push``) and a reader half (``NotEmpty`` guard + ``Pop``) — that share
   only the underlying buffer, not any vertex.  This is observationally
   equivalent to the (n+1)-control-state form: buffer occupancy replaces
   control state.
2. The resulting set is partitioned into connected components of the
   shared-vertex graph (union-find, linear in the total label size).
3. The runtime composes and steps each region separately; regions interact
   only through shared buffers, whose guards are evaluated at firing time —
   exactly the "appropriate run-time support (of constant complexity, but
   non-zero)" the paper mentions.

Because synchronization (shared vertices) never crosses a region boundary,
stepping regions independently preserves the product semantics while the
joint state space becomes the *sum* instead of the *product* of region state
spaces — "exponential growth can be avoided".
"""

from __future__ import annotations

from itertools import combinations
from typing import Sequence

from repro.automata.automaton import ConstraintAutomaton, Transition
from repro.automata.product import _vertex_owners, compose_outgoing
from repro.util.unionfind import UnionFind

#: ``meta`` key under which primitive builders store the decoupled form.
DECOUPLED_KEY = "decoupled"


def decoupled_form(automaton: ConstraintAutomaton):
    """The decoupled halves of ``automaton``, or ``None`` if not decouplable.
    A renamed instance's are its template's, renamed by this call."""
    halves = automaton.meta.get(DECOUPLED_KEY)
    return halves() if callable(halves) else halves


def partition_automata(
    automata: Sequence[ConstraintAutomaton],
    decouple: bool = True,
) -> list[list[ConstraintAutomaton]]:
    """Split ``automata`` into independently composable regions.

    With ``decouple=True``, decouplable automata are first replaced by their
    half-automata so that buffers act as region boundaries.  Returns a list
    of regions (each a list of automata); the order of regions and of
    automata within a region is deterministic.
    """
    work: list[ConstraintAutomaton] = []
    for a in automata:
        halves = decoupled_form(a) if decouple else None
        if halves is not None:
            work.extend(halves)
        else:
            work.append(a)

    uf = UnionFind(range(len(work)))
    owner_of_vertex: dict[str, int] = {}
    for i, a in enumerate(work):
        for v in a.vertices:
            if v in owner_of_vertex:
                uf.union(owner_of_vertex[v], i)
            else:
                owner_of_vertex[v] = i

    regions: dict[int, list[ConstraintAutomaton]] = {}
    min_index: dict[int, int] = {}
    for i, a in enumerate(work):
        root = uf.find(i)
        regions.setdefault(root, []).append(a)
        min_index.setdefault(root, i)
    # Deterministic order: by smallest member index.
    return [members for _, members in sorted(regions.items(), key=lambda kv: min_index[kv[0]])]


#: What :func:`merge_stateless` leaves at a merged member's position: one
#: state, no transitions, no vertices — nothing for a product to consult.
PLACEHOLDER = ConstraintAutomaton(1, 0, frozenset(), (), name="merged")

#: Bound on the process-wide composite table; over it everything is dropped
#: and composed again on demand, like ``product.MEMO_CAP``.
COMPOSITE_CAP = 1 << 10
_composites: dict[tuple, ConstraintAutomaton | None] = {}


def merge_stateless(
    automata: Sequence[ConstraintAutomaton],
    boundary: frozenset[str],
) -> list[ConstraintAutomaton]:
    """Compose each stateless synchronous sub-chain of ``automata`` once.

    A vertex is *inner* when it is not in ``boundary`` and every automaton
    owning it is stateless (one state, no buffers).  Stateless automata
    joined by inner vertices form a group; a group of two or more is
    composed from its one state, its inner vertices hidden, and the
    composite put at the group's lowest position, the other positions
    getting :data:`PLACEHOLDER` — so the control-state tuple keeps its
    layout and every closure the lazy product grows through the group walks
    one component instead of the chain (docs/DECISIONS.md row 16).

    Composites are made once per process for equal members and hidden
    vertices (docs/DECISIONS.md row 11): the automata of a definition's
    later instances are the same, and so is what they merge into.
    """
    automata = list(automata)
    stateless = {i for i, a in enumerate(automata)
                 if a.n_states == 1 and not a.buffers}
    uf = UnionFind(stateless)
    inner: set[str] = set()
    for v, owners in _vertex_owners(automata).items():
        if v not in boundary and stateless.issuperset(owners):
            inner.add(v)
            for j in owners[1:]:
                uf.union(owners[0], j)
    for group in uf.groups():
        if len(group) < 2:
            continue
        members = sorted(group)
        parts = tuple(automata[i] for i in members)
        key = (parts, frozenset().union(*(a.vertices for a in parts)) & inner)
        composite = _composites.get(key, False)
        if composite is False:
            if len(_composites) >= COMPOSITE_CAP:
                _composites.clear()
            composite = _composites[key] = _compose_group(*key)
        if composite is not None:
            automata[members[0]] = composite
            for i in members[1:]:
                automata[i] = PLACEHOLDER
    return automata


def _compose_group(parts, hidden) -> ConstraintAutomaton | None:
    """The one-state composite of stateless ``parts`` with ``hidden``
    dropped from its labels, or ``None`` when two of their minimal steps
    involve disjoint sets of members: a product step may fire both at once
    (joined through vertices outside the group), and the composite, which
    has each only on its own, would lose that step.  Without such a pair a
    product step's part in the group is exactly one of its minimal steps."""
    steps = compose_outgoing(parts, [0] * len(parts))
    if any(a.parts.keys().isdisjoint(b.parts)
           for a, b in combinations(steps, 2)):
        return None
    return ConstraintAutomaton(
        1, 0, frozenset().union(*(a.vertices for a in parts)) - hidden,
        tuple(Transition(0, s.label - hidden, 0, s.atoms, s.effects)
              for s in steps),
        name="+".join(a.name for a in parts),
    )
