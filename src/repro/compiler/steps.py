"""Run-time specialization of the firing hot path ("step compilation").

:mod:`repro.automata.simplify` compiles a transition's declarative data
constraint into an *interpreted* :class:`~repro.automata.simplify.FiringPlan`
— the commandification of ref [30].  This module goes one tier further: it
emits a **specialized Python step function per transition**, closing over
the exact run-time objects the firing touches (the pending-op deques of the
label's boundary vertices, the buffer deques, the resolved registry
callables), and ``exec``-utes it once at compile time.  Firing then costs
one generated-function call — no candidate allocation, no plan-key hashing,
no interpretive walk over guards/assigns/checks, no ``dict.get`` per label
vertex.

Pipeline position (docs/COMPILER.md has the full walkthrough)::

    text ──parse──▶ AST ──flatten/normalize──▶ medium automata
         ──product/partition──▶ regions ──commandify──▶ FiringPlan (IR)
         ──this module──▶ specialized step functions (per region state)

The :class:`~repro.automata.simplify.FiringPlan` is the compile IR: the
emitted body is a straight-line transcription of its guards, slot assigns,
checks, effects, and deliveries, plus the enabledness probe and operation
completion that :meth:`CoordinatorEngine._fire_one_interp` performs around
the plan.  Semantics are identical by construction — the differential-fuzzing
modes ``regions-compiled``/``global-compiled`` (:mod:`repro.fuzz.harness`)
hold the two tiers to trace equivalence.

Refusals
--------
There is no fallback tier: under ``compiled="auto"`` a region stays
compiled for its whole life.  A step is planned through the engine's plan
cache, the very call the interpreter makes at *first fire*, and what that
call raises propagates from where the state's row is built — at
``connect`` for the state a region starts in, at its first visit for any
other: ``KeyError`` for a function/predicate name not registered, or the
:class:`~repro.util.errors.ConstraintError` of a constraint
:func:`~repro.automata.simplify.commandify` rejects (e.g. a push of an
undetermined value).  Nothing is remembered of a refusal: the row is
built again, and raises again, on the next visit, and compiles once the
name is registered.  Registering a name after ``connect`` for a state the
region starts in needs ``compiled="off"``, which resolves names at first
fire.

The generated closures bind deque/set **objects**, so every code path that
replaces such an object must recompile or mutate in place:
``reconfigure`` swaps queues and the closed-vertex set, and recompiles via
``_adopt_regions``; ``BufferStore.set_contents`` (checkpoint restore)
mutates its deques in place for precisely this reason.
"""

from __future__ import annotations

from itertools import chain
from types import FunctionType

from repro.automata.simplify import (
    _APPLY,
    _CONST,
    _PEEK,
    _SEND,
    FiringPlan,
)
from repro.runtime.host import wake


class CompiledStep:
    """One distinct step's specialized function plus its firing metadata —
    shared by every state (and region) that has the step as a candidate.

    ``fire(pending, obs)`` runs probe → guards → checks → effects →
    operation completion and returns

    * ``None`` — not enabled (nothing was mutated);
    * ``True`` — fired, unobserved fast path (``obs`` falsy);
    * a 4-tuple ``(completed_sends, completed_recvs, deliveries, enq)`` —
      fired with ``obs`` truthy; the engine drives the observability
      epilogue (metrics, liveness stamps, tracer record) from it.

    ``boundary`` are the label's vertices whose queues ``fire``
    probes; ``source`` the emitted Python text (artifact uploads, docs,
    ``tools/dump_compiled_steps.py``).  Where the step leads depends on
    the state it fires from: the :class:`StateRow` knows.
    """

    __slots__ = ("label", "fire", "source", "boundary")

    def __init__(self, label, fire, source, boundary):
        self.label = label
        self.fire = fire
        self.source = source
        self.boundary = boundary


class StateRow:
    """What a region's table holds for one compiled control state: all the
    drain loop needs there, so a warm iteration hashes no control state
    (docs/COMPILER.md §4).

    ``steps`` are the candidate transitions and ``entries`` their
    :class:`CompiledStep`, in candidate order.  ``links[i]`` is the row
    candidate ``i`` leads to, once memoised (never, where the table can
    evict); the successor *state* comes from ``steps[i]`` when the
    candidate first fires, not when the row is built.  ``cursor`` caches
    ``region.cursors[state]`` (``None``: no entry); a *changed* value is
    written through, so ``region.cursors`` stays what checkpoints carry.
    ``by_vertex`` — ``None`` until :meth:`index` — maps a boundary vertex to
    the least boundary width among the candidates naming it: a post on it
    enables none of them while fewer vertices than that are pending.
    ``segments`` — ``(memo epoch, step segments, entry segments)``, laid end
    to end in ``steps`` and ``entries`` — is what a successor's row reuses.
    """

    __slots__ = ("state", "steps", "entries", "links", "cursor", "by_vertex",
                 "segments", "__weakref__")

    def __init__(self, state, steps, entries: tuple, segments):
        self.state = state
        self.steps = steps
        self.entries = entries
        self.links: list = [None] * len(entries)
        self.cursor = None
        self.by_vertex = None
        self.segments = segments

    def index(self) -> None:
        least = self.by_vertex = {}
        for e in self.entries:
            width = len(e.boundary)
            for v in e.boundary:
                if least.get(v, width) >= width:
                    least[v] = width


class StepCompiler:
    """Specializes transitions against one engine's concrete run-time state.

    Bound (at construction) to the engine's pending-op queue maps, buffer
    store, boundary signature, closed-vertex set — the exact objects the
    emitted closures capture — and plan cache.  The engine builds a fresh
    compiler in ``_adopt_regions`` so construction *and* reconfigure bind
    current objects.
    """

    def __init__(
        self,
        pending_send: dict,
        pending_recv: dict,
        buffers,
        sources: frozenset[str],
        sinks: frozenset[str],
        closed_vertices: set,
        plan_for,
    ):
        self._buffers = buffers
        self._sources = sources
        self._sinks = sinks
        self._closed = closed_vertices
        #: The engine's plan cache, shared with the interpretive tier.
        self._plan_for = plan_for
        #: A template's bind kinds here (``"k"``/``"f"`` are themselves).
        self._resolve = {"sq": pending_send.get, "rq": pending_recv.get,
                         "b": buffers.queue}
        #: One emission per distinct step: ``(label, id(atoms),
        #: id(effects))`` → its :class:`CompiledStep`, plus the two tuples
        #: themselves, so their ids stay theirs.  See
        #: :meth:`compile_transition`.
        self._emitted: dict[tuple, tuple] = {}

    @property
    def emitted_steps(self) -> int:
        """Distinct step functions built so far."""
        return len(self._emitted)

    def release(self) -> None:
        """Forget every emitted function (the engine closed)."""
        self._emitted.clear()

    # ------------------------------------------------------------------

    def compile_state(self, state, expansion, came=None) -> StateRow:
        """Compile one control state's candidate transitions, in candidate
        order (round-robin cursors index this list identically in both
        tiers), from ``expand``'s ``(epoch, segments, redone)``: just the
        ``redone`` segments where ``came``, the row ``expand`` was given,
        lends the others — and of those, the ones not back as ``came``'s
        very tuple.  A refusal propagates (module docstring)."""
        epoch, segments, redone = expansion
        compile_transition = self.compile_transition
        if redone is None:
            entries = [tuple(map(compile_transition, seg)) for seg in segments]
        else:
            _, had, entries = came.segments
            entries = entries.copy()
            for k in redone:
                if segments[k] is not had[k]:
                    entries[k] = tuple(map(compile_transition, segments[k]))
        return StateRow(state, list(chain.from_iterable(segments)),
                        tuple(chain.from_iterable(entries)),
                        (epoch, segments, entries))

    # ------------------------------------------------------------------

    def compile_transition(self, step) -> CompiledStep:
        """The specialized step function for one transition (a
        :class:`~repro.automata.automaton.Transition` or a
        :class:`~repro.automata.product.ComposedStep`).

        The function depends on the step's label and constraint and on this
        compiler's bound objects, never on source or target state, so it is
        emitted and ``exec``-uted once per distinct step, and the one
        :class:`CompiledStep` serves every state that has the step.
        "Distinct" is by label and by *identity* of the ``atoms`` and
        ``effects`` tuples: a lazy product hands out one
        :class:`~repro.automata.product.ComposedStep` per set of local
        transitions however many global states share it, an eager product's
        transitions carry that step's tuples on (``hide`` rewrites only the
        label), and so does the one-part step an ahead-of-time region wraps
        each of them in; identity costs no walk over frozen dataclasses per
        lookup.  Equal-but-not-identical constraints are merely emitted
        twice.

        A refusal is not remembered: a refusing step raises every time it
        is compiled, exactly as if nothing were memoised.  Regions compiling
        under different locks share the dictionary safely — lookups and
        stores are atomic, and two threads can only race on a key whose
        emissions are interchangeable.
        """
        label, atoms, effects = step.label, step.atoms, step.effects
        key = (label, id(atoms), id(effects))
        hit = self._emitted.get(key)
        if hit is None:
            fire, source = self._emit(label, self._plan_for(step))
            hit = self._emitted[key] = (
                CompiledStep(
                    label, fire, source,
                    tuple(v for v in label
                          if v in self._sources or v in self._sinks)),
                atoms, effects,  # kept alive so their ids stay theirs
            )
        return hit[0]

    # ------------------------------------------------------------------

    def _emit(self, label, plan: FiringPlan) -> tuple:
        """Bind one step function: ``(fire, source)``.

        Source text, code object and what each emitted name stands for are
        the plan's *template*: instance-independent, derived once, kept on
        the plan and so shared wherever the plan is
        (:func:`~repro.automata.simplify.shared_plan`); per instance only a
        function is made, over this compiler's objects.  A template embeds
        one thing its plan does not determine, the capacities under its
        not-full guards, and is replaced should those differ.  Racing
        threads each use the template they read or made: interchangeable.
        """
        template = plan.template
        # no capacities to compare where the plan has no not-full guard
        if template is None or template[0] and template[0] != self._caps(plan):
            template = plan.template = (self._caps(plan),
                                        *self._template(label, plan))
        _, code, source, binds = template
        resolve = self._resolve
        ns = {"_wake": wake, "_closed": self._closed}
        for name, kind, what in binds:
            ns[name] = resolve[kind](what) if kind in resolve else what
        # Over a copy of the code object: CPython keeps a function's inline
        # caches (``LOAD_GLOBAL``'s) in its code, and instances firing in
        # turn through one code object would evict each other's.  ``ns``
        # does not name the function, so the two are no reference cycle.
        return FunctionType(code.replace(), ns), source

    def _caps(self, plan: FiringPlan) -> tuple:
        return tuple(self._buffers.capacity(g.buffer)
                     for g in plan.guards if g.not_full)

    def _template(self, label, plan: FiringPlan) -> tuple:
        """Emit and compile one step function: ``(its code object, source,
        binds)``, ``binds`` listing ``(emitted name, kind, what)``."""
        binds: list[tuple[str, str, object]] = []
        lines: list[str] = ["def _fire(pending, obs):"]
        body: list[str] = []

        def bind(kind: str, what, memo: dict) -> str:
            # vertices and buffers by name, constants and callables by id
            key = (kind, what) if kind in self._resolve else id(what)
            name = memo.get(key)
            if name is None:
                name = memo[key] = f"_{kind}{len(memo)}"
                binds.append((name, kind, what))
            return name

        buf_memo: dict = {}
        misc_memo: dict = {}

        def buf(name: str) -> str:
            return bind("b", name, buf_memo)

        if plan.never:
            body.append("return None")  # statically false constraint

        # --- enabledness probe (the interpreter's per-label-vertex scan,
        # with the send/recv/internal classification done *here*) ---------
        sends: list[str] = []   # label order, like the interpreter's loop
        recvs: list[str] = []
        qvar: dict[str, str] = {}
        if not plan.never:
            boundary = [v for v in label
                        if v in self._sources or v in self._sinks]
            if boundary:
                probe = " or ".join(f"{v!r} in _closed" for v in boundary)
                body.append("if _closed:")
                body.append(f"    if {probe}:")
                body.append("        return None")
            for v in label:
                if v in self._sources:
                    q = bind("sq", v, misc_memo)
                    sends.append(v)
                    qvar[v] = q
                    body.append(f"if not {q}:")
                    body.append("    return None")
                elif v in self._sinks:
                    q = bind("rq", v, misc_memo)
                    recvs.append(v)
                    qvar[v] = q
                    body.append(f"if not {q}:")
                    body.append("    return None")
                # internal vertices: no queue, nothing to probe

            # --- buffer guards (plan order) ------------------------------
            for g in plan.guards:
                q = buf(g.buffer)
                if g.not_full:
                    cap = self._buffers.capacity(g.buffer)
                    if cap is not None:
                        body.append(f"if len({q}) >= {cap}:")
                        body.append("    return None")
                else:
                    body.append(f"if not {q}:")
                    body.append("    return None")

            # --- slot assigns (plan order) --------------------------------
            for slot, kind, payload in plan.assigns:
                if kind == _SEND:
                    body.append(f"_s{slot} = {qvar[payload]}[0].value")
                elif kind == _PEEK:
                    body.append(f"_s{slot} = {buf(payload)}[0]")
                elif kind == _CONST:
                    k = bind("k", payload, misc_memo)
                    body.append(f"_s{slot} = {k}")
                else:  # _APPLY
                    fn, src = payload
                    f = bind("f", fn, misc_memo)
                    body.append(f"_s{slot} = {f}(_s{src})")

            # --- checks (plan order) --------------------------------------
            for check in plan.checks:
                if check[0] == "eq":
                    body.append(f"if _s{check[1]} != _s{check[2]}:")
                else:  # ("pred", fn, slot, negate)
                    _, fn, slot, negate = check
                    f = bind("f", fn, misc_memo)
                    neg = "" if negate else "not "
                    body.append(f"if {neg}{f}(_s{slot}):")
                body.append("    return None")

            # --- effects: the point of no return --------------------------
            for b in plan.pops:
                body.append(f"{buf(b)}.popleft()")
            for b, slot in plan.pushes:
                body.append(f"{buf(b)}.append(_s{slot})")

            # --- operation completion (label order, like the interpreter) -
            deliver = dict(plan.deliveries)  # sink vertex -> slot
            opvar: dict[str, str] = {}
            for i, v in enumerate([u for u in label if u in qvar]):
                op = f"_op{i}"
                opvar[v] = op
                body.append(f"{op} = {qvar[v]}.popleft()")
                if v in deliver:
                    body.append(f"{op}.value = _s{deliver[v]}")
                body.append(f"{op}.done = True")
                body.append(f"_e = {op}.event")
                body.append("if _e is not None:")
                body.append("    _wake(_e)")
                body.append(f"if not {qvar[v]}:")
                body.append(f"    pending.pop({v!r}, None)")

            # --- observed return: the engine's epilogue raw material ------
            body.append("if obs:")
            cs = "(" + "".join(f"{v!r}, " for v in sends) + ")"
            cr = "(" + "".join(f"{v!r}, " for v in recvs) + ")"
            dl = "(" + "".join(
                f"({v!r}, _s{slot}), " for v, slot in plan.deliveries
            ) + ")"
            enq = "(" + "".join(
                f"({v!r}, {opvar[v]}.t_enq), " for v in label if v in opvar
            ) + ")"
            body.append(f"    return ({cs}, {cr}, {dl}, {enq})")
            body.append("return True")

        lines.extend("    " + b for b in body)
        source = "\n".join(lines) + "\n"
        ns: dict = {}
        exec(compile(source, f"<compiled step {sorted(label)}>", "exec"), ns)
        return ns["_fire"].__code__, source, tuple(binds)


def region_sources(engine) -> list[tuple[int, object, str, str]]:
    """Emitted sources of every compiled step currently installed on
    ``engine`` — rows of ``(region_idx, state, label, source)``.  Used by
    ``tools/dump_compiled_steps.py`` (CI artifacts) and docs examples."""
    rows: list[tuple[int, object, str, str]] = []
    for region in engine.regions:
        if not region.compiled:
            continue  # compiled="off": its table, if any, holds steps
        for state, row in sorted(region.table.items(),
                                 key=lambda kv: repr(kv[0])):
            for entry in row.entries:
                rows.append(
                    (region.idx, state,
                     "{" + ",".join(sorted(entry.label)) + "}",
                     entry.source)
                )
    return rows
