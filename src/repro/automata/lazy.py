"""Just-in-time composition (paper §IV.D) with pluggable state caches.

Instead of composing medium automata into one large automaton ahead of time,
:class:`LazyProduct` computes "only the part of the state space of the large
automaton that is actually reached, as the program is executed": the initial
state's outgoing transitions are computed on construction, and every other
state is expanded only once a transition into it fires.

The paper's run-time system "currently" saves expanded states for eternity;
bounded caches with eviction are explicitly left as future work (§V.B).  We
implement both: :class:`UnboundedCache` (the paper's behaviour) and three
bounded caches (:class:`LRUCache`, :class:`FIFOCache`, :class:`RandomCache`)
whose eviction merely drops an expansion, which is recomputed on the next
visit — "the disadvantage is the possible need to recompute states …; the
advantage is that arbitrarily large state spaces can be handled".  A cache
is anything with ``get``/``put``/``clear``/``items``/``__len__`` (and
optionally ``evicts``) that does not look at its values: a connector's
compiled step tier keeps in it the step functions it specialised from a
state's steps (:meth:`LazyProduct.expand`) instead of the steps.

Computing a state is cheap: the product keeps what it learnt about local
neighbourhoods in a :class:`~repro.automata.product.ComposeMemo`, which no
eviction touches, and the compiled tier expands a state from the row of
the state a firing left: only the components that firing moved, and those
whose memoised closures read one, are composed again (DECISIONS.md row 17).
"""

from __future__ import annotations

import random
from collections import OrderedDict
from itertools import chain
from typing import Sequence

from repro.automata.automaton import BufferSpec, ConstraintAutomaton
from repro.automata.product import (
    ComposedStep,
    ComposeMemo,
    compose_segments,
    merged_buffers,
)
from repro.util.errors import CompileError


class UnboundedCache:
    """Keep every expansion forever (the paper's current runtime)."""

    #: Whether ``put`` may drop another key's value (taken to be so of a
    #: cache without the attribute): the engine then memoises no value.
    evicts = False

    def __init__(self) -> None:
        self._data: dict = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get(self, key):
        value = self._data.get(key)
        if value is None:
            self.misses += 1
        else:
            self.hits += 1
        return value

    def put(self, key, value) -> None:
        self._data[key] = value

    def clear(self) -> None:
        self._data.clear()

    def items(self):
        return self._data.items()

    def __len__(self) -> int:
        return len(self._data)


class _BoundedCache(UnboundedCache):
    """Shared machinery for the bounded caches: a capacity and an eviction
    rule on top of the unbounded one."""

    evicts = True

    def __init__(self, capacity: int):
        if capacity < 1:
            raise CompileError("cache capacity must be >= 1")
        super().__init__()
        self.capacity = capacity
        self._data = OrderedDict()

    def get(self, key):
        value = super().get(key)
        if value is not None:
            self._on_hit(key)
        return value

    def put(self, key, value) -> None:
        if key not in self._data and len(self._data) >= self.capacity:
            self._evict()
            self.evictions += 1
        self._data[key] = value

    def _on_hit(self, key) -> None:  # pragma: no cover - overridden
        pass

    def _evict(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


class LRUCache(_BoundedCache):
    """Evict the least recently used expansion."""

    def _on_hit(self, key) -> None:
        self._data.move_to_end(key)

    def _evict(self) -> None:
        self._data.popitem(last=False)


class FIFOCache(_BoundedCache):
    """Evict the oldest expansion regardless of use."""

    def _evict(self) -> None:
        self._data.popitem(last=False)


class RandomCache(_BoundedCache):
    """Evict a pseudo-random expansion (seeded, for reproducible runs)."""

    def __init__(self, capacity: int, seed: int = 0):
        super().__init__(capacity)
        self._rng = random.Random(seed)

    def _evict(self) -> None:
        victim = self._rng.choice(list(self._data.keys()))
        del self._data[victim]


class LazyProduct:
    """The product automaton of Eq. 1, expanded state by state on demand.

    States are tuples of component states.  ``outgoing(state)`` returns the
    composed (minimal) steps from that state, consulting/filling the cache;
    the textbook maximal steps of a state are
    ``compose_outgoing(automata, state, "maximal")``.

    The cache is keyed on global states and may be bounded; beside it the
    product owns a :class:`~repro.automata.product.ComposeMemo`, keyed on
    local neighbourhoods, which makes expanding a state cost what is new in
    it — and re-expanding an evicted state cost a few dictionary lookups.
    ``expansions`` counts global states expanded, memo or not.
    """

    def __init__(
        self,
        automata: Sequence[ConstraintAutomaton],
        cache=None,
    ):
        self.automata = list(automata)
        self.cache = cache if cache is not None else UnboundedCache()
        self._buffers = merged_buffers(self.automata)
        self._memo = ComposeMemo(self.automata)
        self.expansions = 0
        self.initial: tuple[int, ...] = tuple(a.initial for a in self.automata)
        # Expand the initial state up front, as §IV.D prescribes (its
        # segments are the compiled tier's first row).
        self.first = self.expand(self.initial)
        self.cache.put(self.initial, list(chain.from_iterable(self.first[1])))

    @property
    def vertices(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for a in self.automata:
            out |= a.vertices
        return out

    @property
    def buffers(self) -> tuple[BufferSpec, ...]:
        return self._buffers

    def outgoing(self, state: tuple[int, ...]) -> list[ComposedStep]:
        steps = self.cache.get(state)
        if steps is None:
            steps = list(chain.from_iterable(self.expand(state)[1]))
            self.cache.put(state, steps)
        return steps

    def expand(self, state: tuple[int, ...], came=None, at=None) -> tuple:
        """Compose ``state``'s segments through the memo, past the cache:
        for the compiled tier, which stores what it derives from them.
        ``came`` is the row (``state``, ``steps``, ``segments``) whose
        candidate ``at`` led here: only what that firing changed is
        recomposed (:func:`~repro.automata.product.compose_segments`)."""
        self.expansions += 1
        if came is None:
            return compose_segments(self.automata, state, self._memo)
        return compose_segments(
            self.automata, state, self._memo, came.segments,
            [i for i in came.steps[at].parts if state[i] != came.state[i]])

    def release(self) -> None:
        """Drop every expansion and memoised closure (the owning connector
        closed).  The product stays usable — states are expanded again on
        demand — and ``expansions`` keeps its count."""
        self.cache.clear()
        self._memo.clear()

    def validate_state(self, state) -> tuple[int, ...]:
        """Check that ``state`` is a well-formed state of this product.

        Used when restoring a checkpoint: the restored tuple need not be
        cached (``outgoing`` expands any reachable-or-not tuple on demand),
        but it must have one in-range component state per automaton.
        Returns the state (as a tuple) for convenience; raises
        :class:`~repro.util.errors.CompileError` (a ``ValueError``)
        otherwise.
        """
        if not isinstance(state, (tuple, list)):
            raise CompileError(f"state {state!r} is not a tuple of states")
        state = tuple(state)
        if len(state) != len(self.automata):
            raise CompileError(
                f"state has {len(state)} components, product has "
                f"{len(self.automata)}"
            )
        for i, (s, a) in enumerate(zip(state, self.automata)):
            if not isinstance(s, int) or not (0 <= s < max(a.n_states, 1)):
                raise CompileError(
                    f"component {i} state {s!r} out of range for "
                    f"{a.n_states}-state automaton"
                )
        return state
