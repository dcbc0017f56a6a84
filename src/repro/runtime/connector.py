"""Connector objects: the generalized Foster–Chandy ``Connector`` (Fig. 3).

A :class:`RuntimeConnector` owns a list of concrete medium automata (produced
by either compilation approach), a boundary signature (which vertices are
linked to outports/inports), and execution options.  At ``connect`` its
automata become engine *regions*, one per connected component of the
shared-vertex graph (:func:`~repro.automata.partition.partition_automata`
without decoupling): regions share no vertex and no buffer, so each composes
and fires on its own.  That rule is fixed, not an option (docs/DECISIONS.md
row 31).  The options:

* ``composition="jit"`` — just-in-time composition (§IV.D), the default;
* ``composition="aot"`` — ahead-of-time composition: the medium automata
  are eagerly composed into one large automaton at ``connect`` time ("easy
  to implement; resources may be spent unnecessarily");
* ``cache_factory`` — state-cache constructor for JIT regions (unbounded by
  default; pass e.g. ``lambda: LRUCache(1024)`` for the bounded-cache
  extension);
* ``tracer`` — a :class:`repro.runtime.trace.TraceRecorder` receiving every
  fired step (the animation-engine analogue);
* ``default_timeout`` — default bound (seconds) on every blocking send/recv
  through this connector (:class:`~repro.util.errors.ProtocolTimeoutError`
  on expiry); per-call ``timeout=`` arguments override it.  How long a
  deadlock sighting must stand is not an option: it is
  :data:`repro.runtime.host.DETECTION_GRACE`;
* ``overload`` — one :class:`~repro.runtime.overload.OverloadPolicy`,
  applied to every source vertex; the default is the pre-overload
  ``block`` behaviour.  Shed values are queryable through
  :meth:`RuntimeConnector.dead_letters` / :meth:`~RuntimeConnector.shed_count`,
  and :meth:`RuntimeConnector.drain` shuts the instance down gracefully —
  refuse new sends, flush buffered values, close ports in dependency order;
* ``metrics`` — a :class:`~repro.runtime.metrics.MetricsRegistry`: the
  connector then emits the structured metrics catalogued in
  docs/OBSERVABILITY.md (steps, latencies, queue depths, sheds, …) under
  its ``name`` as the ``connector`` label.  Off by default, and free when
  off (single-branch hot-path guards, see docs/INTERNALS.md §8);
* ``concurrency`` — ``"regions"`` (default: per-region locking, so
  independent regions fire on multiple OS threads concurrently),
  ``"global"`` (the same scheduler with every region sharing one lock —
  the reference schedule of the fuzz oracle and the checkpoint matrix, see
  docs/DECISIONS.md); see docs/INTERNALS.md §"Engine concurrency model";
* ``compiled`` — the specialized step tier (docs/COMPILER.md): ``"auto"``
  (default) emits a specialized Python step function per transition — at
  connect time for an eager region, per visited state for a lazy one — and
  fires only those; what the interpreter would raise at first fire (an
  unregistered function name) is raised where a state's steps are
  compiled.  ``"off"`` interprets everything, resolving names at first
  fire: the reference the compiled tier is tested against.

Global steps are always the *minimal* ones (:mod:`repro.automata.product`);
the textbook maximal enumeration is a product-level mode only.
"""

from __future__ import annotations

import threading
import time
from abc import ABC, abstractmethod
from typing import Callable, Sequence

from repro.automata.automaton import ConstraintAutomaton
from repro.automata.constraint import DEFAULT_REGISTRY, FunctionRegistry
from repro.automata.lazy import LazyProduct
from repro.automata.partition import merge_stateless, partition_automata
from repro.automata.product import merged_buffers, product
from repro.runtime.buffers import BufferStore
from repro.runtime.engine import CoordinatorEngine, EagerRegion, LazyRegion
from repro.runtime.metrics import ConnectorMetrics, MetricsRegistry
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import Inport, Outport
from repro.util.errors import ProtocolTimeoutError, RuntimeProtocolError


class Connector(ABC):
    """Interface of the generalized Foster–Chandy model (paper Fig. 3)."""

    @abstractmethod
    def connect(self, outports: Sequence[Outport], inports: Sequence[Inport]) -> None:
        """Link task ports to this connector's boundary vertices."""


class RuntimeConnector(Connector):
    """A protocol instance ready to be linked to task ports."""

    def __init__(
        self,
        automata: Sequence[ConstraintAutomaton],
        tail_vertices: Sequence[str],
        head_vertices: Sequence[str],
        composition: str = "jit",
        cache_factory: Callable[[], object] | None = None,
        registry: FunctionRegistry | None = None,
        state_budget: int | None = None,
        tracer=None,
        default_timeout: float | None = None,
        overload: OverloadPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        name: str = "",
        concurrency: str = "regions",
        compiled: str = "auto",
    ):
        if composition not in ("jit", "aot"):
            raise ValueError(f"composition must be 'jit' or 'aot', not {composition!r}")
        if concurrency not in ("regions", "global"):
            raise ValueError(
                f"concurrency must be 'regions' or 'global', not {concurrency!r}"
            )
        if compiled not in ("auto", "off"):
            raise ValueError(f"compiled must be 'auto' or 'off', not {compiled!r}")
        self.automata = list(automata)
        self.tail_vertices = list(tail_vertices)
        self.head_vertices = list(head_vertices)
        self.composition = composition
        self.cache_factory = cache_factory
        self.registry = registry or DEFAULT_REGISTRY
        self.state_budget = state_budget
        self.tracer = tracer
        self.default_timeout = default_timeout
        self.overload = overload
        self.concurrency = concurrency
        self.compiled = compiled
        self.metrics = metrics
        self._metrics = (
            ConnectorMetrics(metrics, name or "connector")
            if metrics is not None
            else None
        )
        self.name = name
        self.engine: CoordinatorEngine | None = None

        # Recovery bookkeeping: the compiled protocol behind this instance
        # (set via bind_protocol when instantiated from a CompiledProtocol;
        # required for leave()) and the connected ports (set by connect).
        self._protocol = None
        self._bindings: dict | None = None
        self._outports: list[Outport] = []
        self._inports: list[Inport] = []
        self.departures: list = []  # DepartureReports, in order
        # Serializes the administrative operations (checkpoint, restore,
        # leave).  leave() has an unavoidable unlocked prelude — plan
        # re-evaluation, buffer-snapshot capture, port detachment — before
        # the atomic engine.reconfigure(); a checkpoint interleaved into
        # that window could observe half-detached parties or a signature
        # about to vanish.  Engine-level ops already serialize under the
        # engine locks; this lock extends the guarantee to the connector
        # layer.  See tests/runtime/test_admin_race.py.
        self._admin_lock = threading.Lock()

        overlap = set(self.tail_vertices) & set(self.head_vertices)
        if overlap:
            raise RuntimeProtocolError(
                f"vertices {sorted(overlap)} appear on both sides of the signature"
            )

    def bind_protocol(self, protocol, bindings: dict) -> None:
        """Attach the compiled protocol this connector was instantiated
        from (called by ``CompiledProtocol.instantiate_connector``), which
        is what makes run-time re-parametrization possible."""
        self._protocol = protocol
        self._bindings = dict(bindings)

    # ------------------------------------------------------------------

    def connect(self, outports: Sequence[Outport], inports: Sequence[Inport]) -> None:
        """Bind ports positionally to the boundary vertices and start the
        engine.  This is where the run-time share of the parametrized
        compilation approach happens (composition of medium automata)."""
        if self.engine is not None:
            raise RuntimeProtocolError("connector already connected")
        if len(outports) != len(self.tail_vertices):
            raise RuntimeProtocolError(
                f"{self.name or 'connector'} expects {len(self.tail_vertices)} "
                f"outports, got {len(outports)}"
            )
        if len(inports) != len(self.head_vertices):
            raise RuntimeProtocolError(
                f"{self.name or 'connector'} expects {len(self.head_vertices)} "
                f"inports, got {len(inports)}"
            )

        sources = frozenset(self.tail_vertices)
        sinks = frozenset(self.head_vertices)
        regions, store = self._build_regions(self.automata, sources, sinks)

        self.engine = CoordinatorEngine(
            regions,
            store,
            sources,
            sinks,
            registry=self.registry,
            tracer=self.tracer,
            default_timeout=self.default_timeout,
            overload=self.overload,
            metrics=self._metrics,
            concurrency=self.concurrency,
            compiled=self.compiled,
        )
        self._outports = list(outports)
        self._inports = list(inports)
        for port, vertex in zip(outports, self.tail_vertices):
            port._bind(self.engine, vertex)
            port._connector = self
        for port, vertex in zip(inports, self.head_vertices):
            port._bind(self.engine, vertex)
            port._connector = self

    def _build_regions(
        self,
        automata: Sequence[ConstraintAutomaton],
        sources: frozenset[str],
        sinks: frozenset[str],
    ) -> tuple[list[EagerRegion | LazyRegion], BufferStore]:
        """Compose ``automata`` into engine regions, one per connected
        component — used both at ``connect`` time and when re-parametrizing."""
        groups = partition_automata(automata, decouple=False)
        regions: list[EagerRegion | LazyRegion] = []
        all_buffers = []
        for group in groups:
            all_buffers.extend(merged_buffers(group))
            if self.composition == "aot":
                large = product(
                    group, state_budget=self.state_budget, name=self.name)
                # Hide internal vertices so internal data movements fire
                # as τ-steps (labels restricted to the boundary; a no-op on
                # compile_existing's automaton, hidden already).
                large = large.hide(large.vertices - sources - sinks)
                regions.append(EagerRegion(large))
            else:
                cache = self.cache_factory() if self.cache_factory else None
                # Stateless sub-chains composed once, inner vertices hidden
                # (the AOT path above hides them after composing).
                group = merge_stateless(group, sources | sinks)
                regions.append(LazyRegion(LazyProduct(group, cache=cache)))
        return regions, BufferStore(all_buffers)

    # ------------------------------------------------------- recovery layer

    def _require_engine(self) -> CoordinatorEngine:
        if self.engine is None:
            raise RuntimeProtocolError(
                f"{self.name or 'connector'} is not connected"
            )
        return self.engine

    def checkpoint(self, name: str = ""):
        """Snapshot the complete protocol state at a quiescent point.

        See :meth:`repro.runtime.engine.CoordinatorEngine.checkpoint`; the
        returned :class:`~repro.runtime.recovery.Checkpoint` can be restored
        into this connector or into a freshly built, structurally identical
        one (same definition, same arity, same composition options).

        Serialized against :meth:`restore` and :meth:`leave` (a checkpoint
        requested while a departure is re-parametrizing the connector waits
        and then snapshots the *post-departure* state; it never observes the
        intermediate one).
        """
        engine = self._require_engine()
        with self._admin_lock:
            return engine.checkpoint(name=name or self.name)

    def restore(self, cp) -> None:
        """Restore a :class:`~repro.runtime.recovery.Checkpoint` taken from
        this connector or a structurally identical instance.

        Raises :class:`~repro.util.errors.CheckpointError` when the
        snapshot's boundary signature does not match this connector — e.g.
        a checkpoint taken before a :meth:`leave` restored after it."""
        engine = self._require_engine()
        with self._admin_lock:
            engine.restore(cp)

    def leave(self, *ports, task: str = "", cause: BaseException | None = None):
        """Permanently remove the party owning ``ports`` and re-parametrize.

        The compiled protocol behind this connector is re-evaluated at the
        reduced arity (``shrink_bindings`` + ``automata_for`` — the same
        run-time share of parametrized compilation that built the original
        instance), surviving buffer contents are migrated across (singly
        indexed internal names shift down past the departed index), pending
        operations of surviving parties move to their renamed vertices, and
        the departing ports are detached without poisoning anyone.  Blocked
        survivors wake up against the smaller protocol — an ``n``-party
        barrier degrades to ``n−1`` instead of deadlocking.

        Returns a :class:`~repro.runtime.recovery.DepartureReport` (also
        appended to ``self.departures``).  Raises
        :class:`RuntimeProtocolError` when this connector was not
        instantiated from a compiled protocol (graph-built connectors have
        no plan to re-evaluate), and :class:`CompilationError` when the
        departure is structurally impossible (scalar parameter, last array
        element).

        Serialized against :meth:`checkpoint`/:meth:`restore` via the
        connector's admin lock: a concurrent checkpoint observes either
        the pre- or the post-departure protocol, never the re-evaluation
        window in between (tests/runtime/test_admin_race.py).
        """
        with self._admin_lock:
            return self._leave_locked(ports, task, cause)

    def _leave_locked(self, ports, task: str, cause: BaseException | None):
        from repro.compiler.parametrized import shrink_bindings
        from repro.runtime.recovery import (
            DepartureReport,
            index_name_map,
            migrate_buffers,
            reconcile_region_states,
        )

        engine = self._require_engine()
        if self._protocol is None or self._bindings is None:
            raise RuntimeProtocolError(
                f"{self.name or 'connector'} was not instantiated from a "
                "compiled protocol; re-parametrization needs the plan "
                "(use CompiledProtocol.instantiate_connector)"
            )
        if not ports:
            raise RuntimeProtocolError("leave() needs at least one port")
        for p in ports:
            if p._connector is not self:
                raise RuntimeProtocolError(
                    f"port {p.name!r} is not connected to this connector"
                )
        departing = {p._vertex for p in ports}

        new_bindings, vertex_map, index_map = shrink_bindings(
            self._protocol, self._bindings, departing
        )
        automata = self._protocol.automata_for(new_bindings)
        new_tails, new_heads = self._protocol.boundary_vertices(new_bindings)
        sources, sinks = frozenset(new_tails), frozenset(new_heads)
        regions, store = self._build_regions(automata, sources, sinks)

        # Buffer migration: boundary renames are exact (vertex_map); other
        # singly-indexed names shift via index_map; everything else maps by
        # identity or is dropped-and-reported.
        shift = index_name_map(index_map) if index_map is not None else (
            lambda name: name
        )

        def name_map(name: str) -> str | None:
            if name in vertex_map:
                return vertex_map[name]
            if name in departing:
                return None
            return shift(name)

        # The fresh store's occupancy *before* migration is the new token
        # baseline for drain accounting (migration overwrites it with
        # carried user data).
        fresh_occupancy = sum(store.occupancy(n) for n in store.names())
        dropped: dict[str, tuple] = {}

        def migrate() -> None:  # with the world stopped: no send lost
            dropped.update(migrate_buffers(engine.buffers.snapshot(), store,
                                           name_map)[1])
            # The fresh regions sit in their initial control states, which
            # for occupancy-tracking automata cannot see the migrated
            # contents — move each region to the state the contents imply
            # (values no control state can account for are
            # dropped-and-reported).
            dropped.update(reconcile_region_states(regions, store))

        # Detach the departing ports first: their party registration leaves
        # the registry before detection re-evaluates against the survivors.
        for p in ports:
            p._detach()
        engine.reconfigure(
            regions,
            store,
            sources,
            sinks,
            vertex_map,
            initial_occupancy=fresh_occupancy,
            prepare=migrate,
        )
        # Rebind surviving ports and update the connector's own signature.
        # Filter by vertex, not port identity: callers may hand in delegating
        # proxies (e.g. fault-injection wrappers) around the bound ports.
        for plist, vertices in (
            (self._outports, new_tails),
            (self._inports, new_heads),
        ):
            survivors = [p for p in plist if p._vertex not in departing]
            for p, v in zip(survivors, vertices):
                p._rebind_vertex(v)
            plist[:] = survivors
        self.automata = list(automata)
        self.tail_vertices = list(new_tails)
        self.head_vertices = list(new_heads)
        self._bindings = new_bindings

        report = DepartureReport(
            task=task,
            removed_vertices=tuple(sorted(departing)),
            vertex_map=vertex_map,
            dropped_buffers=dropped,
            cause=cause,
        )
        self.departures.append(report)
        return report

    # ------------------------------------------------------- overload layer

    def dead_letters(self, vertex: str | None = None):
        """Shed values captured by this connector's overload policies —
        one vertex's (oldest first), or all in shed order."""
        return self._require_engine().dead_letters(vertex)

    def shed_count(self, vertex: str | None = None) -> int:
        """Exact number of values ever shed (per vertex, or total); counts
        letters the bounded dead-letter buffer has since evicted."""
        return self._require_engine().shed_count(vertex)

    def drain(self, timeout: float | None = None) -> None:
        """Gracefully shut the connector down.

        Three phases: (1) stop admitting new sends — producers get
        :class:`~repro.util.errors.PortClosedError` immediately instead of
        queueing work that will never flow; (2) wait until every admitted
        send has completed and the buffered-value count is back down to the
        connector's initial token occupancy (consumers keep receiving
        throughout, which is what flushes the buffers); (3) close ports in
        dependency order — outports first (no new data can enter), then
        inports, then the engine — so blocked consumers see a clean
        :class:`PortClosedError` rather than a hang.

        Raises :class:`~repro.util.errors.ProtocolTimeoutError` (kind
        ``"drain"``) when ``timeout`` elapses before the flush completes;
        the connector is left draining but open, so the caller can retry
        or force :meth:`close`.
        """
        engine = self._require_engine()
        engine.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        while not engine.drained:
            if deadline is not None and time.monotonic() >= deadline:
                raise ProtocolTimeoutError(
                    self.name or "connector", timeout, kind="drain"
                )
            time.sleep(0.002)
        for port in self._outports:
            port.close()
        for port in self._inports:
            port.close()
        engine.close()

    # ------------------------------------------------------------------

    def close(self) -> None:
        if self.engine is not None:
            self.engine.close()

    @property
    def steps(self) -> int:
        """Global execution steps fired so far (the Fig. 12 metric)."""
        return self.engine.steps if self.engine else 0

    def stats(self) -> dict:
        return self.engine.stats() if self.engine else {}

    def __enter__(self) -> "RuntimeConnector":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
