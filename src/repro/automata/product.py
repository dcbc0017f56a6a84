"""Synchronous product of constraint automata (paper Eq. 1, ref [27]).

Two local transitions may fire in the same global step iff they agree on
every shared vertex: a transition of one automaton that involves shared
vertices fires iff a transition of the other that involves exactly the same
shared vertices fires; transitions involving no shared vertices can fire
independently (paper §III.B).

Two enumeration modes are provided:

* ``mode="minimal"`` (default): a global step is a *minimal* non-empty set
  of local transitions closed under the shared-vertex agreement rule.
  Independent local transitions interleave instead of additionally producing
  every joint combination.  This is observationally equivalent (any joint
  step of independent parts equals a sequence of minimal steps) and avoids
  the per-state transition blow-up.  Its cost per global state is
  proportional to what is new in that state: see :class:`ComposeMemo`.
* ``mode="maximal"``: the textbook product, which also contains every joint
  firing of independent parts.  This faithfully reproduces the behaviour the
  paper reports in §V.C point 3 — "some states with a number of transitions
  exponential in the number of slaves" — and is used by the blow-up
  experiments (E4/E6 in DESIGN.md).

:func:`compose_outgoing` is the single source of truth for the
synchronization rule; both the eager product here and the just-in-time
product in :mod:`repro.automata.lazy` call it.
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter
from typing import Sequence

from repro.automata.automaton import BufferSpec, ConstraintAutomaton, Transition
from repro.util.errors import (
    CompilationBudgetExceeded,
    CompileError,
    WellFormednessError,
)

#: Default bound on the number of product states the eager composition may
#: explore.  Models the capacity limit of the paper's *existing* compiler.
DEFAULT_STATE_BUDGET = 200_000


class ComposedStep:
    """One global step: the participating local transitions, per component.

    A step of one part carries that transition's own ``label``, ``atoms``
    and ``effects`` objects, so it is the same step wherever its transition
    is (step functions and plans are found by the tuples' identity)."""

    __slots__ = ("parts", "label", "atoms", "effects")

    def __init__(self, parts: dict[int, Transition]):
        self.parts = parts
        if len(parts) == 1:
            (t,) = parts.values()
            self.label, self.atoms, self.effects = t.label, t.atoms, t.effects
            return
        label: set[str] = set()
        atoms: list = []
        effects: list = []
        for _, t in sorted(parts.items()):
            label |= t.label
            atoms.extend(t.atoms)
            effects.extend(t.effects)
        self.label = frozenset(label)
        self.atoms = tuple(atoms)
        self.effects = tuple(effects)

    def successor(self, local_states: tuple[int, ...]) -> tuple[int, ...]:
        out = list(local_states)
        for i, t in self.parts.items():
            out[i] = t.target
        return tuple(out)

    def key(self) -> frozenset:
        return frozenset(self.parts.items())


class ComposeMemo:
    """What :func:`compose_outgoing` has already worked out about one list
    of automata, kept between calls so a global state pays only for what is
    new in it (docs/INTERNALS.md §3).

    A global state of a wide product is a tuple over many small components,
    and its outgoing steps are the same few local transition sets met in
    every other global state.  Four things are remembered, none of them
    keyed on a global state:

    * ``owners`` — vertex → owning components;
    * ``seeds`` — per seed transition, the steps grown from it, keyed on
      the components the closure *consulted* (enumerated the outgoing
      transitions of) and their local states.  The closure reads nothing
      else of the global state, so an equal key means an equal result;
    * ``steps`` — one :class:`ComposedStep` per set of local transitions,
      so the same step met from different global states (or under
      different neighbourhoods) is the same object.  Steps are immutable
      and :meth:`ComposedStep.successor` takes the state as an argument;
      the compiled tier emits one function per such object;
    * ``readers`` — per component, the segments (:func:`compose_segments`)
      its local state can change: its own, and those whose memoised
      closures consulted it.

    A memo belongs to the automata list it was built for — a
    :class:`~repro.automata.lazy.LazyProduct` owns one for its lifetime,
    :func:`product` one per call — and is used by one thread at a time (the
    lazy product's region lock).  ``seeds`` is bounded by :data:`MEMO_CAP`
    entries: a product whose neighbourhoods are as wide as the product
    itself (a barrier) would otherwise grow it with every visited state
    behind a bounded state cache.  Over the cap everything is dropped and
    rebuilt on demand; that is invisible apart from the time it costs.
    """

    __slots__ = ("owners", "local", "active", "seeds", "steps", "entries",
                 "readers", "epoch")

    def __init__(self, automata: Sequence[ConstraintAutomaton]):
        self.owners = _vertex_owners(automata)
        #: the components with a transition, one segment (slot) each
        self.active = tuple(i for i, a in enumerate(automata) if a.transitions)
        #: per component, local state → its outgoing transitions, equal
        #: ones dropped (so that no two enumerated steps are equal and the
        #: enumeration needs no duplicate filter of its own)
        self.local: list[dict[int, tuple[Transition, ...]]] = [
            {} for _ in automata
        ]
        self.epoch = 0  # bumped by clear(): older segments are not reused
        self.clear()

    def clear(self) -> None:
        #: per component, local state → per outgoing transition (the seed):
        #: ``(seed, {consulted components: {their local states: steps}})``
        self.seeds: list[dict[int, list[tuple[Transition, dict]]]] = [
            {} for _ in self.local
        ]
        self.steps: dict[tuple, ComposedStep] = {}
        #: memoised closures: one per seed and neighbourhood met
        self.entries = 0
        #: component → its slot and those whose closures consulted it
        self.readers: list[set[int]] = [set() for _ in self.local]
        for k, i in enumerate(self.active):
            self.readers[i].add(k)
        self.epoch += 1


#: Bound on :class:`ComposeMemo` entries (closures, a few steps each).
MEMO_CAP = 1 << 16


def compose_outgoing(
    automata: Sequence[ConstraintAutomaton],
    local_states: Sequence[int],
    mode: str = "minimal",
    memo: ComposeMemo | None = None,
) -> list[ComposedStep]:
    """Enumerate the global steps available from a tuple of local states.

    ``memo`` carries work over from earlier calls on the same ``automata``
    (see :class:`ComposeMemo`); it changes neither the steps nor their
    order.  ``mode="maximal"`` has no use for it."""
    if mode == "minimal":
        _, segments, _ = compose_segments(
            automata, local_states,
            memo if memo is not None else ComposeMemo(automata),
        )
        return list(chain.from_iterable(segments))
    if mode == "maximal":
        return [step for step, _ in _compose_maximal(
            automata, tuple(local_states), _maximal_plan(automata), {}, {})]
    raise CompileError(f"unknown composition mode {mode!r}")


def _vertex_owners(automata: Sequence[ConstraintAutomaton]) -> dict[str, list[int]]:
    owners: dict[str, list[int]] = {}
    for i, a in enumerate(automata):
        for v in a.vertices:
            owners.setdefault(v, []).append(i)
    return owners


def compose_segments(
    automata: Sequence[ConstraintAutomaton],
    local_states: Sequence[int],
    memo: ComposeMemo,
    came: tuple | None = None,
    changed=(),
) -> tuple:
    """Minimal closed sets of compatible local transitions, one *segment*
    per component with a transition (:attr:`ComposeMemo.active`): the steps
    grown from its seeds, in seed order.  Laid end to end, the segments are
    :func:`compose_outgoing`'s list.

    Starting from each seed transition, components that own a vertex of the
    current union label are *forced* to participate; we branch over their
    compatible local transitions until the set is closed.  Minimality is by
    construction (only forced components are added).

    Each closed set is grown from its smallest component only (the
    *canonical seed*): the forced components of a set are connected
    through shared vertices, so the set is reachable from every one of its
    members as seed, and seeds are taken in component order — a branch that
    forces a component below the seed can only rediscover what that
    component's own seeds already produced, and is cut.  Together with
    :attr:`ComposeMemo.local` this makes every enumerated step distinct,
    in the order the uncut enumeration first met them.

    Returns ``(epoch, segments, redone)``.  ``came``, such a result for a
    state differing at most at components ``changed``, is reused if of the
    memo's epoch: a segment reads only the local states its closures
    consulted, so only the changed components' :attr:`ComposeMemo.readers`
    are recomposed (``redone``); else all are (``redone`` is ``None``).
    """
    if memo.entries > MEMO_CAP:
        memo.clear()
    active = memo.active
    if came is not None and came[0] == memo.epoch:
        segments = came[1].copy()
        redone = set()
        for j in changed:
            redone |= memo.readers[j]
    else:
        segments = [()] * len(active)
        redone = None
    for k in range(len(active)) if redone is None else redone:
        i = active[k]
        s = local_states[i]
        seeds = memo.seeds[i].get(s)
        if seeds is None:
            seeds = memo.seeds[i][s] = [
                (t, {}) for t in _local_outgoing(automata, memo, i, s)
            ]
        segment = ()
        for t, table in seeds:
            for key_of, by_states in table.values():
                found = by_states.get(key_of(local_states))
                if found is not None:
                    break
            else:
                comps, found = _grow(automata, local_states, memo, i, t)
                entry = table.get(comps)
                if entry is None:
                    entry = table[comps] = (_states_of(comps), {})
                    for j in comps:
                        memo.readers[j].add(k)
                entry[1][entry[0](local_states)] = found
                memo.entries += 1
            # a memoised list is shared, never extended in place
            segment = segment + found if segment else found
        segments[k] = segment
    return memo.epoch, segments, redone


def _states_of(comps: tuple[int, ...]):
    """``local_states`` → the states of components ``comps``, as a dict key
    (built in C: this runs once per seed of every state composed)."""
    if len(comps) > 1:
        return itemgetter(*comps)
    return itemgetter(comps[0]) if comps else (lambda _states: ())


def _local_outgoing(automata, memo: ComposeMemo, j: int, s: int) -> tuple:
    ts = memo.local[j].get(s)
    if ts is None:
        kept: list[Transition] = []
        for t in automata[j].outgoing(s):
            if t not in kept:
                kept.append(t)
        ts = memo.local[j][s] = tuple(kept)
    return ts


def _grow(
    automata: Sequence[ConstraintAutomaton],
    local_states: Sequence[int],
    memo: ComposeMemo,
    seed: int,
    t: Transition,
) -> tuple[tuple[int, ...], list[ComposedStep]]:
    """The steps whose smallest component is ``seed``, firing ``t`` there,
    and the components whose local state the search looked at."""
    owners = memo.owners
    consulted: dict[int, None] = {}
    found: list[ComposedStep] = []

    def close(parts: dict[int, Transition], label: set[str]) -> None:
        # Find a component that must participate but has not been decided.
        pending = None
        for v in label:
            for j in owners[v]:
                if j not in parts:
                    pending = j
                    break
            if pending is not None:
                break
        if pending is None:
            # Closed: check full agreement (L ∩ V_i == label(t_i)).
            for i, ti in parts.items():
                if (label & automata[i].vertices) != ti.label:
                    return
            key = tuple(sorted((i, id(ti)) for i, ti in parts.items()))
            step = memo.steps.get(key)
            if step is None:
                step = memo.steps[key] = ComposedStep(dict(parts))
            found.append(step)
            return
        j = pending
        if j < seed:
            return  # canonical seed: component j's own seeds grow this set
        consulted[j] = None
        need = label & automata[j].vertices
        for tj in _local_outgoing(automata, memo, j, local_states[j]):
            if tj.label >= need:
                parts[j] = tj
                close(parts, label | set(tj.label))
                del parts[j]

    close({seed: t}, set(t.label))
    return tuple(consulted), found


_IDLE: frozenset = frozenset()


def _maximal_plan(automata: Sequence[ConstraintAutomaton]) -> list[tuple]:
    """Per component k: its vertices shared with an earlier component, its
    vertices, and the vertices of the components after it."""
    vertices = [a.vertices for a in automata]
    return [(v & _IDLE.union(*vertices[:k]), v, _IDLE.union(*vertices[k + 1:]))
            for k, v in enumerate(vertices)]


def _compose_maximal(
    automata: Sequence[ConstraintAutomaton],
    local_states: tuple[int, ...],
    plan: list[tuple],
    made: dict,
    memo: dict,
) -> list[tuple[ComposedStep, tuple[int, ...]]]:
    """The textbook product: every compatible combination, joint firings of
    independent parts included, each step with its successor.  Worst case
    exponential in the number of independent enabled transitions —
    deliberately so (see module docs).

    Components are decided in order, each idling or firing one of its
    transitions.  A choice agrees with the earlier ones iff it labels the
    vertices it shares with them as they do (an idle component's label is
    empty); as the decided owners of a vertex agree on it, that is the set
    ``fired`` of shared vertices they fired (:func:`_maximal_plan`).  So the
    choices for components k… follow from k, their local states and
    ``fired``: ``memo`` maps those to the choices, as the chosen
    transitions' ids (``id(None)`` for idle) with the successor states of
    components k…, and one product's states enumerate each suffix once.
    ``made`` maps a full choice's ids to its step, so the states share the
    steps they have in common."""
    n = len(automata)

    def suffixes(k: int, fired: frozenset) -> list[tuple]:
        if k == n:
            return _END
        key = (k, local_states[k:], fired)
        out = memo.get(key)
        if out is not None:
            return out
        out = memo[key] = []
        s = local_states[k]
        shared, vertices, later = plan[k]
        own = fired & vertices
        for t in (None, *automata[k].outgoing(s)):
            label = _IDLE if t is None else t.label
            if label & shared == own:
                ids, tgt = (id(t),), (s if t is None else t.target,)
                out.extend([(ids + i, tgt + r) for i, r in suffixes(
                    k + 1, (fired | label) & later)])
        return out

    # the first component's choices are a state's own: built into steps
    # and successors, not kept
    steps = []
    s = local_states[0]
    later = plan[0][2]
    for t in (None, *automata[0].outgoing(s)):
        label = _IDLE if t is None else t.label
        ids, tgt = (id(t),), (s if t is None else t.target,)
        records = suffixes(1, label & later)
        # idle first throughout: the first record after an idle first
        # component is the all-idle choice, which is no step
        for i, r in records[1:] if t is None else records:
            key = ids + i
            step = made.get(key)
            if step is None:  # new: find the chosen transitions by their ids
                step = made[key] = ComposedStep({
                    j: next(x for x in automata[j].outgoing(local_states[j])
                            if id(x) == x_id)
                    for j, x_id in enumerate(key) if x_id != _NO_CHOICE})
            steps.append((step, tgt + r))
    return steps


_NO_CHOICE = id(None)
_END: list = [((), ())]


def merged_buffers(automata: Sequence[ConstraintAutomaton]) -> tuple[BufferSpec, ...]:
    """Union of the component automata's buffer declarations.

    Buffer names must be globally unique across a composition; the compiler
    guarantees this by qualifying buffer names per primitive instance.
    """
    out: dict[str, BufferSpec] = {}
    for a in automata:
        for b in a.buffers:
            if b.name in out and out[b.name] != b:
                raise WellFormednessError(
                    f"conflicting declarations for buffer {b.name!r}"
                )
            out[b.name] = b
    return tuple(out.values())


def product(
    automata: Sequence[ConstraintAutomaton],
    mode: str = "minimal",
    state_budget: int | None = DEFAULT_STATE_BUDGET,
    name: str = "",
    time_budget_s: float | None = None,
) -> ConstraintAutomaton:
    """Eagerly compose ``automata`` into one "large automaton" (Eq. 1).

    Only states reachable from the joint initial state are constructed.
    Raises :class:`CompilationBudgetExceeded` when more than ``state_budget``
    product states are discovered, or composition exceeds ``time_budget_s``
    wall-clock seconds — modelling the failure of the paper's existing
    compiler on exponential state spaces (Fig. 12, dotted bins).
    """
    automata = list(automata)
    if not automata:
        raise WellFormednessError("cannot compose an empty set of automata")
    if len(automata) == 1:
        return automata[0]

    import time

    deadline = (
        time.perf_counter() + time_budget_s if time_budget_s is not None else None
    )
    init = tuple(a.initial for a in automata)
    ids: dict[tuple[int, ...], int] = {init: 0}
    order: list[tuple[int, ...]] = [init]
    transitions: list[Transition] = []
    frontier = [init]
    if mode == "maximal":
        plan, made, memo = _maximal_plan(automata), {}, {}
    else:
        memo = ComposeMemo(automata)
    while frontier:
        src = frontier.pop()
        sid = ids[src]
        if deadline is not None and time.perf_counter() > deadline:
            raise CompilationBudgetExceeded(
                state_budget or -1,
                len(order),
                f"composition exceeded the {time_budget_s}s time budget "
                f"after {len(order)} states",
            )
        if mode == "maximal":
            outgoing = _compose_maximal(automata, src, plan, made, memo)
        else:
            steps = compose_outgoing(automata, src, mode, memo)
            outgoing = zip(steps, map(ComposedStep.successor, steps, repeat(src)))
        for step, tgt in outgoing:
            tid = ids.get(tgt)
            if tid is None:
                tid = len(order)
                if state_budget is not None and tid >= state_budget:
                    raise CompilationBudgetExceeded(state_budget, tid + 1)
                ids[tgt] = tid
                order.append(tgt)
                frontier.append(tgt)
            transitions.append(
                Transition(sid, step.label, tid, step.atoms, step.effects)
            )

    vertices = frozenset().union(*(a.vertices for a in automata))
    return ConstraintAutomaton(
        n_states=len(order),
        initial=0,
        vertices=vertices,
        transitions=tuple(transitions),
        buffers=merged_buffers(automata),
        name=name or "x".join(a.name or "?" for a in automata),
        meta={"components": len(automata)},
    )
