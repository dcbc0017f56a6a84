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

Compile-or-fall-back contract
-----------------------------
Compilation is *best effort*: anything this module cannot specialize raises
:class:`~repro.util.errors.CompileError`, and the engine demotes the
affected region to the always-correct interpretive tier (nothing else
catches that type — see docs/COMPILER.md "When compilation refuses").
Genuine refusals:

* a constraint the engine cannot plan yet — the compiler asks the engine's
  plan cache, the call the interpreter makes at *first fire*, and demotes
  on what that call raises: ``KeyError`` for a function/predicate name not
  registered (late registration must keep working), or the
  :class:`~repro.util.errors.ConstraintError` of a constraint
  :func:`~repro.automata.simplify.commandify` rejects (e.g. a push of an
  undetermined value), which the interpreter then surfaces as before;
* a region over the compile budget (:data:`TRANSITION_BUDGET`) — emitting
  and ``exec``-ing tens of thousands of functions would cost more than it
  saves.

The generated closures bind deque/set **objects**, so every code path that
replaces such an object must recompile or mutate in place:
``reconfigure`` swaps queues and the closed-vertex set, and recompiles via
``_adopt_regions``; ``BufferStore.set_contents`` (checkpoint restore)
mutates its deques in place for precisely this reason.

Crossing a process boundary
---------------------------
For the same reason the closures are **not picklable** — they capture live
deques, sets, and resolved callables, none of which survive a pickle round
trip meaningfully.  The multiprocess backend (``concurrency="workers"``,
:mod:`repro.runtime.workers`) therefore never ships compiled steps across
the fork: each worker adopts its regions via the ordinary checkpoint
hand-off and *re-emits* the step functions in-worker from the region's
:class:`~repro.automata.simplify.FiringPlan` IR — the IR, unlike the
emitted closure, is process-independent.  The emitted body needs no
changes to run there because it only speaks the deque protocol
(``append``/``popleft``/``[0]``/truth), which
:class:`~repro.runtime.workers.ShmFifo` implements over shared memory;
the closure binds whichever buffer object the worker's
:class:`~repro.runtime.buffers.BufferStore` holds at compile time.
"""

from __future__ import annotations

from types import FunctionType

from repro.automata.simplify import (
    _APPLY,
    _CONST,
    _PEEK,
    _SEND,
    FiringPlan,
)
from repro.runtime.host import wake
from repro.util.errors import CompileError, ConstraintError

#: Per-region bound on transitions compiled ahead of time.  An eager region
#: beyond this is demoted wholesale (exec-ing that many functions would
#: dwarf any firing speedup); lazy regions compile per *visited* state and
#: are bounded by their state cache instead.
TRANSITION_BUDGET = 20_000


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

    ``touched`` are the buffers a firing mutates (for cross-region
    signalling); ``boundary`` the label's vertices whose queues ``fire``
    probes; ``source`` the emitted Python text (artifact uploads, docs,
    ``tools/dump_compiled_steps.py``).  Where the step leads depends on
    the state it fires from: the :class:`StateRow` knows.
    """

    __slots__ = ("label", "touched", "fire", "source", "boundary")

    def __init__(self, label, touched, fire, source, boundary):
        self.label = label
        self.touched = touched
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
    """

    __slots__ = ("state", "steps", "entries", "links", "cursor", "by_vertex",
                 "__weakref__")

    def __init__(self, state, steps, entries: tuple):
        self.state = state
        self.steps = steps
        self.entries = entries
        self.links: list = [None] * len(entries)
        self.cursor = None
        self.by_vertex = None

    def index(self) -> None:
        least = self.by_vertex = {}
        for e in self.entries:
            width = len(e.boundary)
            for v in e.boundary:
                least[v] = min(least.get(v, width), width)


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

    def compile_state(self, steps, state) -> StateRow:
        """Compile one control state's candidate transitions, in candidate
        order (round-robin cursors index this list identically in both
        tiers).  Raises :class:`CompileError` on the first refusal — the
        caller demotes the whole region, per the module contract."""
        return StateRow(
            state, steps, tuple(map(self.compile_transition, steps)))

    def compile_automaton(self, automaton) -> dict:
        """Compile every state of an eager region's large automaton into a
        ``{state: StateRow}`` table."""
        if len(automaton.transitions) > TRANSITION_BUDGET:
            raise CompileError(
                f"region has {len(automaton.transitions)} transitions, over "
                f"the step-compile budget of {TRANSITION_BUDGET}"
            )
        return {
            s: self.compile_state(automaton.outgoing(s), s)
            for s in range(automaton.n_states)
        }

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
        label), and identity costs no walk over frozen dataclasses per
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
            fire, source, touched = self._emit(label, self._plan(step))
            hit = self._emitted[key] = (
                CompiledStep(
                    label, touched, fire, source,
                    tuple(v for v in label
                          if v in self._sources or v in self._sinks)),
                atoms, effects,  # kept alive so their ids stay theirs
            )
        return hit[0]

    def _plan(self, step) -> FiringPlan:
        """The step's plan, from the very call the interpreter would make
        at first fire; what that call raises there is a refusal here."""
        try:
            return self._plan_for(step)
        except KeyError as exc:
            # A name not registered yet: demoting keeps a registration
            # between connect and first fire working.
            raise CompileError(f"{exc.args[0]} at compile time") from exc
        except ConstraintError as exc:
            raise CompileError(f"unplannable constraint: {exc}") from exc

    # ------------------------------------------------------------------

    def _emit(self, label, plan: FiringPlan) -> tuple:
        """Bind one step function: ``(fire, source, touched)``.

        Source text, code object and what each emitted name stands for are
        the plan's *template*: instance-independent, derived once, kept on
        the plan and so shared wherever the plan is
        (:func:`~repro.automata.simplify.shared_plan`); per instance only a
        function is made, over this compiler's objects.  A template embeds
        one thing its plan does not determine, the capacities under its
        not-full guards, and is replaced should those differ.  Racing
        threads each use the template they read or made: interchangeable.
        """
        caps = tuple(
            self._buffers.capacity(g.buffer) for g in plan.guards if g.not_full
        )
        template = plan.template
        if template is None or template[0] != caps:
            template = plan.template = (caps, *self._template(label, plan))
        _, code, source, binds = template
        resolve = self._resolve
        ns = {"_wake": wake, "_closed": self._closed}
        for name, kind, what in binds:
            ns[name] = resolve[kind](what) if kind in resolve else what
        # Over a copy of the code object: CPython keeps a function's inline
        # caches (``LOAD_GLOBAL``'s) in its code, and instances firing in
        # turn through one code object would evict each other's.  ``ns``
        # does not name the function, so the two are no reference cycle.
        return FunctionType(code.replace(), ns), source, plan.touched

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
            continue  # its table, if any, holds steps, not compiled entries
        for state, row in sorted(region.table.items(),
                                 key=lambda kv: repr(kv[0])):
            for entry in row.entries:
                rows.append(
                    (region.idx, state,
                     "{" + ",".join(sorted(entry.label)) + "}",
                     entry.source)
                )
    return rows
