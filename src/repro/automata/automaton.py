"""Constraint automata (paper §III.B, ref [27]).

A :class:`ConstraintAutomaton` represents the behaviour of a connector:
states are internal configurations, transitions are global execution steps.
Each :class:`Transition` is labelled with the set of vertices through which
messages synchronously flow plus a data constraint (see
:mod:`repro.automata.constraint`).

Unlike the textbook formalization — where a fifo's *content* is part of the
state — data lives in named buffers (:class:`BufferSpec`) manipulated through
constraint effects, while automaton states track only *control* (e.g. a
fifo1 being empty or full).  This mirrors what Reo code generators actually
emit and keeps state spaces independent of the data domain.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import eq

from repro.automata.constraint import (
    Atom,
    Effect,
    Eq,
    NotEmpty,
    NotFull,
    Pop,
    Pred,
    Push,
    rename_atom,
    rename_effect,
    term_buffers,
)
from repro.util.errors import WellFormednessError


@dataclass(frozen=True, slots=True)
class BufferSpec:
    """A named data buffer owned by an automaton.

    ``capacity`` is ``None`` for an unbounded buffer (Fig. 6(b), the ``∞``
    fifo).  ``initial`` seeds the buffer, which is how token-ring connectors
    such as the sequencer are built.
    """

    name: str
    capacity: int | None = 1
    initial: tuple = ()

    def renamed(self, mapping: dict[str, str]) -> "BufferSpec":
        return replace(self, name=mapping.get(self.name, self.name))


@dataclass(frozen=True, slots=True)
class Transition:
    """One global execution step.

    ``label`` is the synchronization set: the vertices through which data
    flows in this step.  An empty label is an internal (τ) step, which the
    runtime may fire without any task involvement (e.g. data shifting
    between buffers of a hidden sub-connector).
    """

    source: int
    label: frozenset[str]
    target: int
    atoms: tuple[Atom, ...] = ()
    effects: tuple[Effect, ...] = ()

    def hidden(self, vertices: frozenset[str]) -> "Transition":
        """Drop ``vertices`` from the label (data constraints keep them as
        internal slots)."""
        return replace(self, label=self.label - vertices)


@dataclass(frozen=True)
class ConstraintAutomaton:
    """A finite-state constraint automaton.

    States are integers ``0..n_states-1``; ``initial`` is the start state.
    ``vertices`` must cover every vertex occurring in a transition label.
    ``buffers`` declares the data buffers the transitions' constraints refer
    to.  ``meta`` carries provenance (e.g. the primitive type that produced
    the automaton) and the optional *decoupled form* used by the
    partitioning optimization (see :mod:`repro.automata.partition`).
    """

    n_states: int
    initial: int
    vertices: frozenset[str]
    transitions: tuple[Transition, ...]
    buffers: tuple[BufferSpec, ...] = ()
    name: str = ""
    meta: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if not (0 <= self.initial < max(self.n_states, 1)):
            raise WellFormednessError(
                f"initial state {self.initial} out of range for {self.n_states} states"
            )
        buffer_names = {b.name for b in self.buffers}
        if len(buffer_names) != len(self.buffers):
            raise WellFormednessError(f"duplicate buffer names in {self.name!r}")
        for t in self.transitions:
            if not (0 <= t.source < self.n_states and 0 <= t.target < self.n_states):
                raise WellFormednessError(
                    f"transition {t} references a state out of range"
                )
            if not t.label <= self.vertices:
                raise WellFormednessError(
                    f"transition label {set(t.label)} not within declared "
                    f"vertices {set(self.vertices)}"
                )
        # a product's transitions share their step's atom and effect tuples,
        # and the tuples their objects: check each distinct one once
        tuples = {id(xs): xs for t in self.transitions for xs in (t.atoms, t.effects)}
        distinct = {id(x): x for xs in tuples.values() for x in xs}
        for referenced in _referenced_buffers(distinct.values()):
            if referenced not in buffer_names:
                raise WellFormednessError(
                    f"transition references undeclared buffer {referenced!r}"
                )

    # -- queries ----------------------------------------------------------

    def outgoing(self, state: int) -> tuple[Transition, ...]:
        """All transitions leaving ``state`` (precomputed on first use)."""
        index = self.__dict__.get("_out_index")
        if index is None:
            index = [[] for _ in range(self.n_states)]
            for t in self.transitions:
                index[t.source].append(t)
            index = [tuple(ts) for ts in index]
            object.__setattr__(self, "_out_index", index)
        return index[state]

    @property
    def buffer_map(self) -> dict[str, BufferSpec]:
        return {b.name: b for b in self.buffers}

    # -- transformations ---------------------------------------------------

    def renamed(
        self,
        vmap: dict[str, str] | None = None,
        bmap: dict[str, str] | None = None,
        name: str | None = None,
    ) -> "ConstraintAutomaton":
        """A copy with vertices/buffers renamed (used for template
        instantiation and flattening); ``self`` if no name changes."""
        vmap = vmap or {}
        bmap = bmap or {}
        if name in (None, self.name) and all(map(eq, vmap, vmap.values())) \
                and all(map(eq, bmap, bmap.values())):
            return self
        # a product's transitions combine a few local ones, so the same
        # label, atom and effect objects recur: rename each once
        done: dict = {}

        def each(xs, rename):
            for x in xs:
                if id(x) not in done:
                    done[id(x)] = rename(x, vmap, bmap)
            return tuple(done[id(x)] for x in xs)

        labels: dict[frozenset, frozenset] = {}
        transitions = []
        for t in self.transitions:
            if t.label not in labels:
                labels[t.label] = frozenset(vmap.get(v, v) for v in t.label)
            transitions.append(Transition(
                t.source, labels[t.label], t.target,
                each(t.atoms, rename_atom), each(t.effects, rename_effect)))
        meta = dict(self.meta)
        halves = meta.get("decoupled")  # partition.DECOUPLED_KEY
        if halves is not None:  # the instance's halves, renamed when read
            meta["decoupled"] = lambda: tuple(
                h.renamed(vmap, bmap)
                for h in (halves() if callable(halves) else halves))
        return ConstraintAutomaton(
            self.n_states,
            self.initial,
            frozenset(vmap.get(v, v) for v in self.vertices),
            tuple(transitions),
            tuple(b.renamed(bmap) for b in self.buffers),
            name if name is not None else self.name,
            meta,
        )

    def hide(self, vertices: frozenset[str] | set[str]) -> "ConstraintAutomaton":
        """Remove ``vertices`` from labels and the vertex set.

        Hiding internal vertices after composition shrinks labels (faster
        synchronization checks); hidden vertices may still occur in data
        constraints, where they act as anonymous intermediate values.
        """
        hidden = frozenset(vertices) & self.vertices
        if not hidden:
            return self
        return ConstraintAutomaton(
            self.n_states,
            self.initial,
            self.vertices - hidden,
            tuple(t.hidden(hidden) for t in self.transitions),
            self.buffers,
            self.name,
            dict(self.meta),
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"ConstraintAutomaton({self.name or '<anon>'}: {self.n_states} states, "
            f"{len(self.transitions)} transitions, {len(self.vertices)} vertices)"
        )


def _referenced_buffers(items):
    """The buffers the atoms and effects ``items`` refer to."""
    for x in items:
        if isinstance(x, (NotFull, NotEmpty, Pop)):
            yield x.buffer
        elif isinstance(x, Eq):
            yield from term_buffers(x.left)
            yield from term_buffers(x.right)
        elif isinstance(x, Pred):
            yield from term_buffers(x.arg)
        elif isinstance(x, Push):
            yield x.buffer
            yield from term_buffers(x.term)
