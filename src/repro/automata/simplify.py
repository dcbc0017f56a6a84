"""Transition-command compilation ("commandification", ref [30], §V.B point 1).

The existing Reo compiler "does optimizations at compile-time, by simplifying
transition labels (in a semantics-preserving way); this makes firing of
single transitions (much) faster".  This module is that optimization: it
compiles a transition's declarative data constraint into a straight-line
:class:`FiringPlan` — guards, slot assignments, equality/predicate checks,
then effects — so the runtime fires transitions by executing a plan rather
than solving constraints.

The paper notes the optimization "is also applicable in the new approach
(but not yet implemented)"; our runtime applies it in *both* approaches: the
existing approach plans every transition at compile/connect time, the new
approach plans each transition the first time it is considered and caches
the plan (costs "amortized over multiple iterations", as the paper
predicts).

Planning needs to know which label vertices are data *sources* (bound to
task outports — their value is the pending send's payload) and which are
*sinks* (bound to task inports — the plan must deliver a value to them).
That information exists only once a connector is linked to ports, which is
why plans are built per (transition, boundary) rather than stored inside
automata.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.constraint import (
    App,
    Atom,
    Buf,
    Const,
    Effect,
    Eq,
    FunctionRegistry,
    NotEmpty,
    NotFull,
    Pop,
    Pred,
    Push,
    Term,
    V,
)
from repro.util.errors import ConstraintError
from repro.util.unionfind import UnionFind

# Slot source kinds, resolved during evaluation:
_SEND = 0  # value of the pending send at a boundary-out vertex
_PEEK = 1  # front element of a buffer
_CONST = 2  # literal constant
_APPLY = 3  # registered function applied to another slot


@dataclass(frozen=True, slots=True)
class _Guard:
    not_full: bool  # else: not empty
    buffer: str


class FiringPlan:
    """Executable form of one transition's data constraint.

    ``evaluate(offers, buffers)`` returns the computed slot values if the
    transition can fire given the offered data and buffer contents, else
    ``None``.  ``commit(buffers, slots)`` applies the effects and returns
    the values to deliver to sink (inport-bound) vertices.  ``evaluate``
    never mutates, so the engine may probe many transitions before firing
    one.
    """

    __slots__ = (
        "guards",
        "assigns",
        "checks",
        "pops",
        "pushes",
        "deliveries",
        "never",
        "n_slots",
        "template",
    )

    def __init__(self) -> None:
        self.guards: list[_Guard] = []
        # assigns: (slot, kind, payload) executed in order
        self.assigns: list[tuple[int, int, object]] = []
        # checks: ("eq", a, b) | ("pred", fn, slot, negate)
        self.checks: list[tuple] = []
        self.pops: list[str] = []
        self.pushes: list[tuple[str, int]] = []
        self.deliveries: list[tuple[str, int]] = []
        self.never = False
        self.n_slots = 0
        # The step compiler's source text and code object emitted from this
        # plan (repro.compiler.steps): shared wherever the plan is.
        self.template: tuple | None = None

    @property
    def resolved(self) -> bool:
        """Whether planning resolved a registry name: such a plan holds
        that registry's callables as of now and is nobody else's."""
        return any(a[1] == _APPLY for a in self.assigns) or any(
            c[0] == "pred" for c in self.checks)

    def evaluate(self, offers, buffers):
        """Check guards/constraints; return slot values or None."""
        if self.never:
            return None
        for g in self.guards:
            if g.not_full:
                if buffers.full(g.buffer):
                    return None
            elif buffers.empty(g.buffer):
                return None
        slots = [None] * self.n_slots
        for slot, kind, payload in self.assigns:
            if kind == _SEND:
                slots[slot] = offers[payload]
            elif kind == _PEEK:
                slots[slot] = buffers.peek(payload)
            elif kind == _CONST:
                slots[slot] = payload
            else:  # _APPLY
                fn, src = payload
                slots[slot] = fn(slots[src])
        for check in self.checks:
            if check[0] == "eq":
                if slots[check[1]] != slots[check[2]]:
                    return None
            else:  # pred
                _, fn, slot, negate = check
                if bool(fn(slots[slot])) == negate:
                    return None
        return slots

    def commit(self, buffers, slots):
        """Apply effects; return ``{sink_vertex: value}`` deliveries."""
        for b in self.pops:
            buffers.pop(b)
        for b, slot in self.pushes:
            buffers.push(b, slots[slot])
        return {v: slots[slot] for v, slot in self.deliveries}


def commandify(
    label: frozenset[str],
    atoms: tuple[Atom, ...],
    effects: tuple[Effect, ...],
    source_vertices: frozenset[str],
    sink_vertices: frozenset[str],
    registry: FunctionRegistry,
) -> FiringPlan:
    """Compile a transition into a :class:`FiringPlan`.

    ``source_vertices``/``sink_vertices`` are the boundary vertices bound to
    task outports/inports.  Raises :class:`ConstraintError` when a value the
    plan must *produce* (a buffer push or predicate argument) cannot be
    determined from the constraint; undetermined *deliveries* fall back to
    ``None`` (the datum of a spout-like primitive is arbitrary).
    """
    plan = FiringPlan()

    # --- guards (explicit, plus implied NotEmpty for every peeked buffer) --
    guard_seen: set[tuple[bool, str]] = set()

    def add_guard(not_full: bool, buffer: str) -> None:
        key = (not_full, buffer)
        if key not in guard_seen:
            guard_seen.add(key)
            plan.guards.append(_Guard(not_full, buffer))

    def note_peeks(t: Term) -> None:
        if isinstance(t, Buf):
            add_guard(False, t.buffer)
        elif isinstance(t, App):
            note_peeks(t.arg)

    eq_atoms: list[Eq] = []
    pred_atoms: list[Pred] = []
    for a in atoms:
        if isinstance(a, NotFull):
            add_guard(True, a.buffer)
        elif isinstance(a, NotEmpty):
            add_guard(False, a.buffer)
        elif isinstance(a, Eq):
            eq_atoms.append(a)
            note_peeks(a.left)
            note_peeks(a.right)
        elif isinstance(a, Pred):
            pred_atoms.append(a)
            note_peeks(a.arg)
        else:
            raise ConstraintError(f"unknown atom {a!r}")
    for e in effects:
        if isinstance(e, Push):
            note_peeks(e.term)

    # --- equality classes over terms --------------------------------------
    uf = UnionFind()

    def register(t: Term) -> Term:
        uf.add(t)
        if isinstance(t, App):
            register(t.arg)
        return t

    for a in eq_atoms:
        uf.union(register(a.left), register(a.right))
    for a in pred_atoms:
        register(a.arg)
    for e in effects:
        if isinstance(e, Push):
            register(e.term)
    for v in label:
        register(V(v))

    # --- slot assignment ---------------------------------------------------
    # Each union-find class gets one defining slot; additional independent
    # primary sources in the same class become eq-checks.
    class_members: dict[object, list[Term]] = {}
    all_terms: list[Term] = sorted(
        (t for t in uf._parent),  # noqa: SLF001 - deliberate, ordered snapshot
        key=repr,
    )
    for t in all_terms:
        class_members.setdefault(uf.find(t), []).append(t)

    slot_of_class: dict[object, int] = {}

    def new_slot() -> int:
        s = plan.n_slots
        plan.n_slots += 1
        return s

    def primary_sources(members: list[Term]) -> list[tuple[int, object]]:
        out: list[tuple[int, object]] = []
        for m in members:
            if isinstance(m, Const):
                out.append((_CONST, m.value))
            elif isinstance(m, V) and m.vertex in source_vertices:
                out.append((_SEND, m.vertex))
            elif isinstance(m, Buf):
                out.append((_PEEK, m.buffer))
        return out

    # First pass: classes with a direct primary source.
    pending: list[object] = []
    for root, members in class_members.items():
        sources = primary_sources(members)
        if sources:
            slot = new_slot()
            slot_of_class[root] = slot
            kind, payload = sources[0]
            plan.assigns.append((slot, kind, payload))
            # Extra independent sources must agree at fire time.
            for kind2, payload2 in sources[1:]:
                extra = new_slot()
                plan.assigns.append((extra, kind2, payload2))
                plan.checks.append(("eq", slot, extra))
        else:
            pending.append(root)

    # Fixpoint pass: classes whose value comes from a function application.
    defining_app: dict[object, App] = {}
    progress = True
    while pending and progress:
        progress = False
        for root in list(pending):
            for m in class_members[root]:
                if isinstance(m, App):
                    arg_root = uf.find(m.arg)
                    if arg_root in slot_of_class:
                        slot = new_slot()
                        slot_of_class[root] = slot
                        defining_app[root] = m
                        plan.assigns.append(
                            (
                                slot,
                                _APPLY,
                                (registry.function(m.func), slot_of_class[arg_root]),
                            )
                        )
                        pending.remove(root)
                        progress = True
                        break
            if progress:
                break

    # Remaining App members act as checks: if a class already has a slot and
    # also contains App(f, x) with x's class resolved, then f(x) must equal
    # the class value at fire time.
    for root, members in class_members.items():
        if root not in slot_of_class:
            continue
        slot = slot_of_class[root]
        for m in members:
            if isinstance(m, App) and m is not defining_app.get(root):
                arg_root = uf.find(m.arg)
                if arg_root in slot_of_class:
                    computed = new_slot()
                    plan.assigns.append(
                        (
                            computed,
                            _APPLY,
                            (registry.function(m.func), slot_of_class[arg_root]),
                        )
                    )
                    plan.checks.append(("eq", slot, computed))

    # --- predicate checks ---------------------------------------------------
    for a in pred_atoms:
        root = uf.find(a.arg)
        if root not in slot_of_class:
            raise ConstraintError(
                f"predicate {a.pred!r} applied to an undetermined value"
            )
        plan.checks.append(
            ("pred", registry.predicate(a.pred), slot_of_class[root], a.negate)
        )

    # --- statically false constraints ---------------------------------------
    # Two distinct constants in one class can never be equal.
    for root, members in class_members.items():
        consts = {m.value for m in members if isinstance(m, Const)}
        if len(consts) > 1:
            plan.never = True

    # --- effects -------------------------------------------------------------
    for e in effects:
        if isinstance(e, Pop):
            add_guard(False, e.buffer)
            plan.pops.append(e.buffer)
        elif isinstance(e, Push):
            add_guard(True, e.buffer)
            root = uf.find(e.term)
            if root not in slot_of_class:
                raise ConstraintError(
                    f"push into {e.buffer!r} of an undetermined value"
                )
            plan.pushes.append((e.buffer, slot_of_class[root]))
        else:
            raise ConstraintError(f"unknown effect {e!r}")

    # --- deliveries to sink vertices ------------------------------------------
    for v in sorted(label & sink_vertices):
        root = uf.find(V(v))
        slot = slot_of_class.get(root)
        if slot is None:
            # Spout-like: the constraint leaves the datum arbitrary.
            slot = new_slot()
            plan.assigns.append((slot, _CONST, None))
            slot_of_class[root] = slot
        plan.deliveries.append((v, slot))

    # Frozen from here on: engines share plans (see shared_plan).
    for name in ("guards", "assigns", "checks", "pops", "pushes", "deliveries"):
        setattr(plan, name, tuple(getattr(plan, name)))
    return plan


#: Bound on the process-wide plan table; over it everything is dropped and
#: planned again on demand, like ``product.MEMO_CAP``.
SHARED_PLAN_CAP = 1 << 13
_shared_plans: dict[tuple, FiringPlan] = {}


def shared_plan(label, atoms, effects, source_vertices, sink_vertices,
                registry: FunctionRegistry) -> FiringPlan:
    """:func:`commandify`, once per process for equal arguments: a plan
    that resolved no registry name depends on nothing else, so every engine
    with this step gets the same frozen object, and with it the step code
    emitted from it.  A plan that did resolve one is made afresh for each
    caller, and so is a refusal — a re-registration, a second registry or a
    late registration is never served a stale answer.  Lock-free: ``get``
    and item assignment are atomic, and two threads racing on one key
    derive interchangeable plans."""
    key = (label, atoms, effects, source_vertices, sink_vertices)
    plan = _shared_plans.get(key)
    if plan is None:
        plan = commandify(*key, registry)
        if not plan.resolved:
            if len(_shared_plans) >= SHARED_PLAN_CAP:
                _shared_plans.clear()
            _shared_plans[key] = plan
    return plan
