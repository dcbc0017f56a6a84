"""Reference simulator and script builder — the fuzzer's ground truth.

:class:`RefSim` executes a :class:`~repro.fuzz.gen.FuzzProgram` directly on
the composed small-step semantics: a :class:`~repro.automata.lazy.LazyProduct`
over the protocol's granularity-"small" automata, firing plans from
:func:`~repro.automata.simplify.commandify`, values in a
:class:`~repro.runtime.buffers.BufferStore`.  This is the same machinery the
engine interprets — deliberately so: the sim is not a second implementation
of the *semantics* (that would need its own differential test) but a second
implementation of the *scheduler*, which is exactly the part the fuzzer
compares across modes.

**The determinism filter.**  :func:`build_script` random-walks the program,
emitting *batches* of boundary operations.  A candidate batch survives only
if the walk can consume it as a sequence of *uniquely enabled* steps: at
every point from the batch's submission to quiescence, exactly one step of
the whole product is enabled (boundary steps under the batch's remaining
offers/recvs, internal τ-steps under their buffer guards).  Uniqueness under
the *full* batch implies uniqueness under every submission prefix — a step's
enabledness only reads its own label's vertices — so the engine fires the
same step sequence no matter how its drain interleaves with the submission
of the batch, how regions are partitioned, or which round-robin cursor
position a region happens to hold.  That is what entitles the oracle
(:mod:`repro.fuzz.oracle`) to demand *exact* equality across execution modes
with zero tolerance; programs that would behave nondeterministically are not
discarded but covered by the chaos layer (:mod:`repro.fuzz.chaos`) under
order-insensitive oracles.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.automata.lazy import LazyProduct
from repro.automata.product import merged_buffers
from repro.automata.simplify import commandify
from repro.compiler.parametrized import compile_source
from repro.runtime.buffers import BufferStore


@dataclass(frozen=True)
class SimOp:
    """One boundary operation of a batch.  ``value`` is the payload for a
    send and the *expected delivery* for a recv (filled by the walk)."""

    kind: str  # "send" | "recv"
    vertex: str
    value: object = None


@dataclass(frozen=True)
class Batch:
    """Operations submitted together, consumed to quiescence before the
    next batch (the walk guarantees this terminates deterministically)."""

    ops: tuple[SimOp, ...]


@dataclass
class Script:
    """A validated schedule of batches plus the walk's derived facts."""

    batches: list[Batch] = field(default_factory=list)
    #: ``(batch_index, vertex)`` points where a lone send on ``vertex``
    #: enables *no* step — a flood posted there with an immediate-only shed
    #: policy is deterministically shed in every mode (harness docstring).
    flood_points: list[tuple[int, str]] = field(default_factory=list)


@dataclass
class Schedule:
    """Cross-mode perturbations applied identically in every mode."""

    #: Before this batch index: checkpoint, discard the connector, restore
    #: into a freshly built one (None = no split).
    checkpoint_at: int | None = None
    #: ``(batch_index, vertex)`` floods (must come from
    #: ``Script.flood_points``).
    floods: tuple[tuple[int, str], ...] = ()


class RefSim:
    """Step-by-step reference executor for one program."""

    def __init__(self, program):
        prog = compile_source(program.dsl)
        proto = prog.protocol(program.protocol)
        bindings = proto.default_bindings(
            program.sizes if program.sizes is not None else {}
        )
        self.automata = proto.automata_for(bindings, "small")
        tails, heads = proto.boundary_vertices(bindings)
        self.tails = tuple(tails)
        self.heads = tuple(heads)
        self.sources = frozenset(tails)
        self.sinks = frozenset(heads)
        self.lazy = LazyProduct(list(self.automata))
        self.buffers = BufferStore(merged_buffers(self.automata))
        self.state = self.lazy.initial
        self._plans: dict[int, object] = {}

    # -- state bookkeeping -------------------------------------------------

    def snapshot(self):
        return (self.state, self.buffers.snapshot())

    def restore(self, snap) -> None:
        self.state, contents = snap
        self.buffers.restore(contents)

    # -- semantics ---------------------------------------------------------

    def _plan(self, step):
        plan = self._plans.get(id(step))
        if plan is None:
            from repro.automata.constraint import DEFAULT_REGISTRY

            plan = self._plans[id(step)] = commandify(
                step.label, step.atoms, step.effects,
                self.sources, self.sinks, DEFAULT_REGISTRY,
            )
        return plan

    def enabled(self, offers: dict, recvs) -> list:
        """Every step enabled at the current state given ``offers`` (vertex
        → value for pending sends) and ``recvs`` (vertices with a pending
        receive).  Mirrors the engine's ``_fire_one_interp`` enabledness
        test: boundary label vertices need a matching pending operation, internal
        label vertices are free, and the firing plan's buffer guards must
        hold."""
        out = []
        for step in self.lazy.outgoing(self.state):
            ok = True
            for v in step.label:
                if v in self.sources:
                    if v not in offers:
                        ok = False
                        break
                elif v in self.sinks:
                    if v not in recvs:
                        ok = False
                        break
            if not ok:
                continue
            plan = self._plan(step)
            slots = plan.evaluate(offers, self.buffers)
            if slots is not None:
                out.append((step, plan, slots))
        return out

    def run_batch(self, ops):
        """Consume ``ops`` to quiescence, requiring a uniquely enabled step
        at every point (module docstring).  Returns the completion list
        ``[(kind, vertex, value)]`` in firing order — recv values filled
        from actual deliveries — or ``None`` if the batch is ambiguous,
        unconsumable, or leaves the cascade nondeterministic.  The sim state
        is only advanced on success (callers need no snapshot discipline)."""
        snap = self.snapshot()
        offers = {}
        recvs = set()
        for op in ops:
            if op.kind == "send":
                if op.vertex in offers:
                    self.restore(snap)
                    return None  # one op per vertex per batch
                offers[op.vertex] = op.value
            else:
                if op.vertex in recvs:
                    self.restore(snap)
                    return None
                recvs.add(op.vertex)
        completions = []
        for _ in range(256):  # cascade bound (well past any real program)
            steps = self.enabled(offers, recvs)
            if len(steps) > 1:
                self.restore(snap)
                return None
            if not steps:
                if offers or recvs:
                    self.restore(snap)
                    return None  # unconsumed operations would stay pending
                return completions
            step, plan, slots = steps[0]
            deliveries = plan.commit(self.buffers, slots)
            self.state = step.successor(self.state)
            for v in step.label:
                if v in self.sources and v in offers:
                    completions.append(("send", v, offers.pop(v)))
                elif v in self.sinks and v in recvs:
                    recvs.discard(v)
                    completions.append(("recv", v, deliveries.get(v)))
        self.restore(snap)
        return None  # runaway cascade: treat as invalid rather than loop


def build_script(program, seed: int, *, max_batches: int = 10,
                 tries_per_batch: int = 16) -> Script:
    """Random-walk ``program`` into a deterministic :class:`Script`.

    Sent values are consecutive integers (globally unique within a script),
    so any cross-mode reordering or loss shows up as a value mismatch, not
    just a count skew."""
    rng = random.Random(f"fuzzscript:{seed}")
    sim = RefSim(program)
    script = Script()
    target = rng.randint(3, max_batches)
    counter = 0
    ports = list(sim.tails) + list(sim.heads)
    if not ports:
        return script
    while len(script.batches) < target:
        made = False
        for _ in range(tries_per_batch):
            # Up to 6 ops per batch: a fully synchronous arity-3 connector
            # (Barrier) needs all 6 boundary operations in one step.
            k = rng.randint(1, min(6, len(ports)))
            picked = rng.sample(ports, k)
            ops = []
            for v in picked:
                if v in sim.sources:
                    ops.append(SimOp("send", v, counter))
                    counter += 1
                else:
                    ops.append(SimOp("recv", v))
            result = sim.run_batch(ops)
            if result is None:
                continue
            expected = {
                (kind, v): value for kind, v, value in result
            }
            final_ops = tuple(
                SimOp(op.kind, op.vertex,
                      expected[(op.kind, op.vertex)]
                      if op.kind == "recv" else op.value)
                for op in ops
            )
            script.batches.append(Batch(final_ops))
            made = True
            break
        if not made:
            break  # walk is stuck (e.g. every composite batch is ambiguous)
        # Flood points: a lone send enabling no step at this quiescent state
        # is deterministically shed under an immediate-only policy.
        i = len(script.batches)
        for v in sim.tails:
            if not sim.enabled({v: object()}, set()):
                script.flood_points.append((i, v))
    return script


def revalidate(program, batches) -> Script | None:
    """Re-run ``batches`` (possibly edited by the shrinker) through a fresh
    sim; returns a new :class:`Script` with recomputed recv expectations and
    flood points, or ``None`` if any batch is no longer uniquely
    executable."""
    sim = RefSim(program)
    script = Script()
    known = {v for v in list(sim.tails) + list(sim.heads)}
    for batch in batches:
        ops = [op for op in batch.ops if op.vertex in known]
        if not ops:
            continue
        result = sim.run_batch(ops)
        if result is None:
            return None
        expected = {(kind, v): value for kind, v, value in result}
        script.batches.append(Batch(tuple(
            SimOp(op.kind, op.vertex,
                  expected[(op.kind, op.vertex)] if op.kind == "recv"
                  else op.value)
            for op in ops
        )))
        i = len(script.batches)
        for v in sim.tails:
            if not sim.enabled({v: object()}, set()):
                script.flood_points.append((i, v))
    return script


def make_schedule(program, script, seed: int) -> Schedule:
    """The seeded perturbation schedule for one run: maybe a mid-run
    checkpoint/restore split, maybe flood injections (never on channelable
    programs — the channel model takes no overload policy, so it cannot
    shed a flood and the two models' runs would not be comparable)."""
    rng = random.Random(f"fuzzsched:{seed}")
    checkpoint_at = None
    if len(script.batches) >= 2 and rng.random() < 0.5:
        checkpoint_at = rng.randint(1, len(script.batches) - 1)
    floods = ()
    if not program.channelable and script.flood_points and rng.random() < 0.5:
        k = min(len(script.flood_points), rng.randint(1, 2))
        floods = tuple(rng.sample(script.flood_points, k))
    return Schedule(checkpoint_at=checkpoint_at, floods=floods)
