"""Data-constraint language attached to automaton transitions.

The paper abstracts from data ("the transition labels in Fig. 7 are
simplified relative to the transition labels used in the compiler, which have
more information, notably about the content of messages").  This module is
that "more information": a small constraint language rich enough to express
every primitive in the Reo literature that the paper builds on.

A transition carries

* a tuple of **atoms** — conditions that must hold for the transition to
  fire: term equalities (:class:`Eq`), predicate filters (:class:`Pred`) and
  buffer-occupancy guards (:class:`NotFull`, :class:`NotEmpty`);
* a tuple of **effects** — state changes applied when it fires: buffer
  pushes (:class:`Push`) and pops (:class:`Pop`).

**Terms** denote the datum observed at a fired vertex (:class:`V`), the
front element of a buffer (:class:`Buf`), a constant (:class:`Const`) or a
unary function application (:class:`App`).  Functions and predicates are
referenced *by name* and resolved at run time through a
:class:`FunctionRegistry`, which keeps automata hashable and serializable
(important for code generation).

All classes here are immutable and hashable; the synchronous product simply
concatenates atom/effect tuples of the composed transitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


# --------------------------------------------------------------------------
# Terms
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class V:
    """The datum flowing through vertex ``vertex`` in this execution step."""

    vertex: str

    def rename(self, mapping: dict[str, str]) -> "V":
        return V(mapping.get(self.vertex, self.vertex))


@dataclass(frozen=True, slots=True)
class Buf:
    """The element at the front of buffer ``buffer`` (before any pop/push)."""

    buffer: str

    def rename_buffers(self, mapping: dict[str, str]) -> "Buf":
        return Buf(mapping.get(self.buffer, self.buffer))


@dataclass(frozen=True, slots=True)
class Const:
    """A constant datum."""

    value: object


@dataclass(frozen=True, slots=True)
class App:
    """Application of the registered unary function ``func`` to ``arg``."""

    func: str
    arg: "Term"


Term = V | Buf | Const | App


# --------------------------------------------------------------------------
# Atoms (conditions)
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Eq:
    """Both terms denote the same datum in this execution step."""

    left: Term
    right: Term


@dataclass(frozen=True, slots=True)
class Pred:
    """The registered predicate ``pred`` holds (or, if ``negate``, fails)
    for the datum denoted by ``arg``."""

    pred: str
    arg: Term
    negate: bool = False


@dataclass(frozen=True, slots=True)
class NotFull:
    """Buffer ``buffer`` has room for at least one more element."""

    buffer: str


@dataclass(frozen=True, slots=True)
class NotEmpty:
    """Buffer ``buffer`` contains at least one element."""

    buffer: str


Atom = Eq | Pred | NotFull | NotEmpty


# --------------------------------------------------------------------------
# Effects
# --------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Push:
    """Append the datum denoted by ``term`` to the back of ``buffer``."""

    buffer: str
    term: Term


@dataclass(frozen=True, slots=True)
class Pop:
    """Remove the front element of ``buffer``."""

    buffer: str


Effect = Push | Pop


# --------------------------------------------------------------------------
# Renaming (used by flattening, templates, and hiding)
# --------------------------------------------------------------------------


def rename_term(t: Term, vmap: dict[str, str], bmap: dict[str, str]) -> Term:
    """Return ``t`` with vertices renamed via ``vmap`` and buffers via ``bmap``."""
    if isinstance(t, V):
        return V(vmap.get(t.vertex, t.vertex))
    if isinstance(t, Buf):
        return Buf(bmap.get(t.buffer, t.buffer))
    if isinstance(t, Const):
        return t
    if isinstance(t, App):
        return App(t.func, rename_term(t.arg, vmap, bmap))
    raise TypeError(f"not a term: {t!r}")


def rename_atom(a: Atom, vmap: dict[str, str], bmap: dict[str, str]) -> Atom:
    """Return ``a`` with vertices/buffers renamed."""
    if isinstance(a, Eq):
        return Eq(rename_term(a.left, vmap, bmap), rename_term(a.right, vmap, bmap))
    if isinstance(a, Pred):
        return Pred(a.pred, rename_term(a.arg, vmap, bmap), a.negate)
    if isinstance(a, NotFull):
        return NotFull(bmap.get(a.buffer, a.buffer))
    if isinstance(a, NotEmpty):
        return NotEmpty(bmap.get(a.buffer, a.buffer))
    raise TypeError(f"not an atom: {a!r}")


def rename_effect(e: Effect, vmap: dict[str, str], bmap: dict[str, str]) -> Effect:
    """Return ``e`` with vertices/buffers renamed."""
    if isinstance(e, Push):
        return Push(bmap.get(e.buffer, e.buffer), rename_term(e.term, vmap, bmap))
    if isinstance(e, Pop):
        return Pop(bmap.get(e.buffer, e.buffer))
    raise TypeError(f"not an effect: {e!r}")


def term_vertices(t: Term) -> frozenset[str]:
    """The set of vertices whose data ``t`` refers to."""
    if isinstance(t, V):
        return frozenset((t.vertex,))
    if isinstance(t, App):
        return term_vertices(t.arg)
    return frozenset()


def term_buffers(t: Term) -> frozenset[str]:
    """The set of buffers whose contents ``t`` refers to."""
    if isinstance(t, Buf):
        return frozenset((t.buffer,))
    if isinstance(t, App):
        return term_buffers(t.arg)
    return frozenset()


# --------------------------------------------------------------------------
# Function/predicate registry
# --------------------------------------------------------------------------


class FunctionRegistry:
    """Named unary functions and predicates used by :class:`App`/:class:`Pred`.

    Automata reference functions by name so they remain pure data; the
    registry supplies the implementations at planning/firing time.
    """

    def __init__(self) -> None:
        self._functions: dict[str, Callable[[object], object]] = {}
        self._predicates: dict[str, Callable[[object], bool]] = {}

    def register_function(self, name: str, fn: Callable[[object], object]) -> None:
        self._functions[name] = fn

    def register_predicate(self, name: str, fn: Callable[[object], bool]) -> None:
        self._predicates[name] = fn

    def function(self, name: str) -> Callable[[object], object]:
        try:
            return self._functions[name]
        except KeyError:
            raise KeyError(f"function {name!r} not registered") from None

    def predicate(self, name: str) -> Callable[[object], bool]:
        try:
            return self._predicates[name]
        except KeyError:
            raise KeyError(f"predicate {name!r} not registered") from None

    def merged_with(self, other: "FunctionRegistry | None") -> "FunctionRegistry":
        """A new registry containing this registry's entries plus ``other``'s."""
        out = FunctionRegistry()
        out._functions.update(self._functions)
        out._predicates.update(self._predicates)
        if other is not None:
            out._functions.update(other._functions)
            out._predicates.update(other._predicates)
        return out


#: A registry shared by default among connectors that do not supply their own.
DEFAULT_REGISTRY = FunctionRegistry()
DEFAULT_REGISTRY.register_function("identity", lambda x: x)
DEFAULT_REGISTRY.register_predicate("true", lambda _x: True)
DEFAULT_REGISTRY.register_predicate("false", lambda _x: False)
