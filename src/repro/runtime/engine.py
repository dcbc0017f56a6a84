"""The reactive coordination engine (paper §III.B, §IV.D).

One :class:`CoordinatorEngine` drives one connected protocol instance.  It
holds one or more *regions* (see :mod:`repro.automata.partition`); each
is a :class:`LazyRegion`, a :class:`~repro.automata.lazy.LazyProduct`
expanded state by state as a run reaches them (the new approach, §IV.D).
Ahead-of-time composition (the existing approach) differs only in *when*
the product is composed: its region is a product of one member, the large
automaton, where expanding a state looks up its transitions.

Execution model (caller-driven, as in compiled Reo): a task's send/recv
registers a pending operation and then *drains* — repeatedly firing enabled
transitions until quiescence — before blocking.  Every firing completes the
operations of the boundary vertices in its label and may enable further
transitions (including internal τ-steps with empty labels, which the drain
loop also fires).

Concurrency model (docs/INTERNALS.md §"Engine concurrency model")
-----------------------------------------------------------------
Regions are the unit of concurrency.  A connector's regions are the
connected components of its medium automata
(:meth:`~repro.runtime.connector.RuntimeConnector._build_regions`): they
share no vertex and no buffer, so a firing in one region can neither
enable nor disable anything in another.  The engine exploits that
independence:

* a **binding** per boundary vertex (built at construction, rebuilt on
  reconfigure) sends every submission straight to its queue and region;
* **per-region locks**: a submission takes only its region's lock and
  drains only its region — independent regions fire concurrently on
  separate OS threads;
* **incremental candidate scanning**: each region maintains its
  pending-vertex set (``region.pend``) as ops enqueue/dequeue, so a
  firing attempt never rebuilds a global pending list, and a region whose
  dirty flag is clear is skipped without any scan at all;
* **per-party wakeup slots**: every blocked operation carries its own
  wake slot (:func:`repro.runtime.host.wake_slot`, a raw lock), released
  when a firing completes (or fails) exactly that operation — no global
  ``notify_all`` thundering herd.

Lock order (outermost first): the registry lock ``_lock`` → region locks in
ascending ``region.idx`` → leaf locks (tracer, dead-letter buffer, the
metrics stat lock).  The submission hot path takes a single region lock and
nothing above it; cold paths (close, checkpoint/restore, reconfigure,
drain-mode flips, party registration, deadlock delivery) stop the world by
taking ``_lock`` plus every region lock, which is also what lets the
deadlock detector aggregate a consistent snapshot across regions without
deadlocking against the hot path.

``concurrency="global"`` is the same scheduler with a one-lock *region
group*: every region is handed the same lock, so all firing is mutually
exclusive while routing, incremental scanning and the wakeup slots are
exactly the code above.  It is kept as the oracle-reference
value (fuzz ``global-*`` modes, the cross-backend checkpoint matrix), not
as a second implementation — see docs/DECISIONS.md.

Fault tolerance
---------------
(The party registry, the blocked-wait loop, the detector and the admin
validation described here and below are :class:`~repro.runtime.host.EngineHost`'s;
this module supplies its hooks.)
Blocking operations take an optional ``timeout``; a timed-out operation is
*withdrawn* from its queue before :class:`ProtocolTimeoutError` is raised,
so it can never enable a transition on behalf of a task that gave up.
Tasks (via their ports, see :meth:`repro.runtime.ports._Port.set_owner`)
register as *parties* of the engine, and deadlock is detected against them
alone — every registered party blocked on a committed operation, engine
quiescent.  The engine learns its parties only by registration; with none
registered, blocked operations wait out their timeouts.  When a
supervised peer crashed, the detection delivers :class:`PeerFailedError`
(naming the dead task) instead of a bare :class:`DeadlockError`.

Overload protection
-------------------
One :class:`~repro.runtime.overload.OverloadPolicy` bounds every source
vertex's pending-send deque: under ``shed_newest`` a send that would exceed
``max_pending`` is dropped into a bounded dead-letter buffer
(:meth:`dead_letters`) and reported as a success to the submitter.  The
default (no policy, or kind ``"block"``) is exactly the pre-overload
behaviour.  :meth:`begin_drain` flips the engine into *draining* mode —
new sends are refused with :class:`PortClosedError` while receives keep
flushing buffered values; :attr:`drained` reports when everything user-
visible has left the protocol (see :meth:`RuntimeConnector.drain`).

Observability
-------------
When constructed with ``metrics=`` (a
:class:`~repro.runtime.metrics.ConnectorMetrics` hook bundle), the engine
counts submissions, firings, completion latencies, scan effort and sheds,
and exposes queue depths / buffer occupancy as sampled gauges —
all behind single ``if self._metrics is not None`` guards so the
unobserved hot path is unchanged (design notes: docs/INTERNALS.md §8).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Sequence

from repro.automata.constraint import FunctionRegistry
from repro.automata.lazy import LazyProduct
from repro.automata.simplify import FiringPlan, shared_plan
from repro.runtime.buffers import BufferStore
from repro.runtime.host import EngineHost, wake, wake_slot
from repro.runtime.metrics import LATENCY_STRIDE
from repro.runtime.overload import OverloadPolicy
from repro.runtime.recovery import Checkpoint, RegionState
from repro.util.errors import PortClosedError

#: Bitmask for the sampled latency histogram (LATENCY_STRIDE is a power
#: of two; ``steps & mask == 0`` is measurably cheaper than ``%``).
_LAT_MASK = LATENCY_STRIDE - 1
assert LATENCY_STRIDE & _LAT_MASK == 0, "LATENCY_STRIDE must be a power of two"

#: What :meth:`CoordinatorEngine._enqueue` does with an operation its
#: submission drain left unresolved: a post stays queued, a ``try_*`` probe
#: is withdrawn, a blocking submit installs its wakeup slot and parks.  The
#: overload policy applies to the two that stay.
_LEAVE, _WITHDRAW, _PARK = range(3)


class _Op:
    """One pending send/receive operation.

    ``t_enq`` is when the op entered its queue — stamped at submission while
    anything observes, else when it parks — the watchdog's raw material for
    telling a *stalled* party (old op, engine still firing) from a deadlock.
    ``event`` is the op's private wake slot
    (:func:`~repro.runtime.host.wake_slot`): installed only when the
    submitter actually blocks, woken when a firing (or a failure) resolves
    this op.
    """

    __slots__ = ("vertex", "value", "done", "error", "t_enq", "event")

    def __init__(self, vertex: str, value=None):
        self.vertex = vertex
        self.value = value
        self.done = False
        self.error: Exception | None = None
        self.t_enq = 0.0
        self.event = None


class _Binding:
    """A boundary vertex resolved once for submission: its queue, owner
    region and overload policy (docs/DECISIONS.md row 14).  Current while
    ``epoch`` is the engine's; the reconfigure that moves the epoch points
    ``successor`` at the binding of the party's renamed vertex (``None``:
    the vertex left)."""

    __slots__ = ("vertex", "is_send", "queue", "region", "policy", "epoch",
                 "successor")

    def __init__(self, vertex, is_send, queue, region, policy, epoch):
        self.vertex, self.is_send, self.queue = vertex, is_send, queue
        self.region, self.policy, self.epoch = region, policy, epoch
        self.successor = None


class LazyRegion:
    """Region backed by a just-in-time product — of the medium automata
    (``composition="jit"``), or of the one large automaton composed ahead
    of time (``"aot"``), whose expansion of a state is its transition list.

    ``table`` is the product's state cache and the region's only store of
    expanded states: composed steps while interpreted, a ``StateRow`` of
    ``CompiledStep`` while compiled — what the cache evicts is gone whole.
    ``kind`` names the composition, ``"lazy"`` or ``"eager"``: a checkpoint
    restores only into a region of its own kind.  The runtime fields are
    stamped again by every engine that adopts the region."""

    def __init__(self, lazy: LazyProduct, kind: str = "lazy"):
        self.lazy = lazy
        self.kind = kind
        self.table = lazy.cache
        #: Whether rows may be referenced outside the table (``row``,
        #: ``StateRow.links``): memos of ``table.get``, sound where nothing
        #: evicts — a bounded cache must see every visit, its evictions die.
        self.links = not getattr(self.table, "evicts", True)
        self.state = lazy.initial
        # Per-state round-robin cursors for fairness (see _drain_region): a
        # cursor is an index into one state's candidate list, so sharing a
        # single cursor across states aliases lists of different length and
        # order — which is exactly what starved a competing sender behind a
        # resonating pair (the pre-region engine's rr drift bug).
        self.cursors: dict = {}
        self._init_runtime()

    def _init_runtime(self) -> None:
        #: Position in ``engine.regions`` — stable identity for the tracer
        #: and checkpoint code (no O(#regions) ``list.index`` on the hot
        #: path).
        self.idx = 0
        #: This region's lock (``concurrency="global"`` shares one lock
        #: across all regions).  Assigned by the adopting engine.
        self.lock: threading.Lock | None = None
        #: Incrementally maintained pending-vertex set (insertion-ordered
        #: dict used as an ordered set, for deterministic candidate order).
        self.pend: dict[str, None] = {}
        #: Set when this region may have a newly enabled transition for a
        #: reason other than the post being submitted (docs/INTERNALS.md §4
        #: lists them); cleared by the drain that scans it, and written only
        #: under this region's lock (or with the world stopped).  A clean
        #: region has nothing enabled: a post that no candidate can answer
        #: skips the scan.
        self.dirty = False
        #: The table's row for ``state``, or ``None`` — interpreted region,
        #: evicting table, a state whose row is not built yet, or a write
        #: outside the drain loop (``reseat``).
        self.row = None
        #: Steps fired by this region (``engine.steps`` sums these).
        self.fired = 0
        #: Candidates examined before fired steps (metrics; advanced only
        #: when metered, like the pre-region ``_scan_count``).
        self.scanned = 0
        #: Compiled step tier (repro.compiler.steps): True when the region's
        #: ``table`` maps a control state to its StateRow of specialized
        #: CompiledStep functions, for the region's whole life; False under
        #: ``compiled="off"``, when the interpretive engine runs it.
        self.compiled = False

    @property
    def vertices(self) -> frozenset[str]:
        return self.lazy.vertices

    def candidates(self):
        """The state's steps, in the order its compiled row lists them:
        round-robin cursors, and the checkpoints that carry them, index
        this list by position in either tier."""
        return self.lazy.outgoing(self.state)

    def advance(self, step) -> None:
        self.state = step.successor(self.state)

    def reseat(self) -> None:
        """``state`` or ``cursors`` was written outside the drain loop:
        forget the current row; every row takes its cursor again."""
        self.row = None
        if self.compiled:
            for state, row in self.table.items():
                row.cursor = self.cursors.get(state)

    def drop_rows(self) -> None:
        """Empty the table; links undone first, rows die by refcount."""
        self.row = None
        if self.compiled:
            for _, row in self.table.items():
                row.links.clear()
        self.table.clear()


class CoordinatorEngine(EngineHost):
    """Reactive state machine driving one protocol instance.

    ``sources`` are boundary vertices bound to outports (tasks send there);
    ``sinks`` are bound to inports.  Parties register via
    :meth:`register_party` (ports do this for their owning task, see
    :class:`repro.runtime.tasks.SupervisedTaskGroup`); when *every currently
    registered* party is blocked on a committed operation and no transition
    is enabled, for a :data:`~repro.runtime.host.DETECTION_GRACE`
    confirmation window that absorbs staggered task start-up, every blocked
    operation fails with :class:`DeadlockError`.

    ``default_timeout`` bounds every blocking operation that does not pass
    its own ``timeout``.  ``concurrency`` selects ``"regions"`` (one lock
    per region, the default) or ``"global"`` (one lock shared by every
    region); see the module docstring.
    """

    def __init__(
        self,
        regions: Sequence[LazyRegion],
        buffers: BufferStore,
        sources: frozenset[str],
        sinks: frozenset[str],
        registry: FunctionRegistry | None = None,
        tracer=None,
        default_timeout: float | None = None,
        overload: OverloadPolicy | None = None,
        metrics=None,
        concurrency: str = "regions",
        compiled: str = "auto",
    ):
        if concurrency not in ("regions", "global"):
            raise ValueError(
                f"concurrency must be 'regions' or 'global', not {concurrency!r}"
            )
        super().__init__(
            concurrency, sources, sinks, registry, tracer, default_timeout,
            overload, metrics, compiled, buffers,
        )
        self.buffers = buffers
        # Timing stamps and liveness marks on the post path exist for the
        # observability layer and the watchdog; with neither attached they
        # are skipped (parties arriving later re-enable them dynamically —
        # see _post).
        self._observing = metrics is not None or tracer is not None
        self._step_compiler = None

        # concurrency="global": the one lock every region is handed (it
        # outlives reconfigure, so the group stays one group).  None means
        # a fresh lock per region.
        self._group_lock = threading.Lock() if concurrency == "global" else None

        self._pending_send: dict[str, deque[_Op]] = {v: deque() for v in sources}
        self._pending_recv: dict[str, deque[_Op]] = {v: deque() for v in sinks}

        #: Both tiers' plan cache: the interpreter evaluates the plans, the
        #: step compiler emits from them (see :meth:`_plan_for`).
        self._plans: dict[tuple, tuple] = {}
        # _steps_approx is a racily maintained shortcut to ``steps`` for
        # hot-path liveness stamps.
        self._steps_approx = 0
        # Bumped by _adopt_regions: a _Binding is current while it matches.
        self._epoch = 0

        self._adopt_regions(regions)

        if metrics is not None:
            metrics.attach_engine(self)

        # Fire anything enabled from the very start (e.g. token rings with
        # initialized fifos feeding internal vertices).
        with self._world_stopped():
            for r in self.regions:
                r.dirty = True
            self._drain_all_locked()

    # ------------------------------------------------------------------ API

    def binding(self, vertex: str) -> _Binding:
        """The current binding of boundary vertex ``vertex``, which a port
        resolves at connect and submits through (``KeyError``: none)."""
        return self._sending.get(vertex) or self._receiving[vertex]

    def try_submit(self, b: _Binding, value=None) -> tuple[bool, object]:
        """Non-blocking send or receive through binding ``b``: complete it
        if a transition fires at once, else withdraw it.  ``(done, value)``"""
        op = self._enqueue(b, value, None, None, _WITHDRAW)
        return op.done, op.value

    def post_send(self, vertex: str, value, policy: "OverloadPolicy | None" = None):
        """Asynchronous send: enqueue the operation, drain, and return its
        handle without ever blocking the caller.

        Unlike :meth:`try_submit` the offer is *not* withdrawn when no
        transition fires immediately — it stays pending, exactly as a
        blocked :meth:`submit` would, and completes when a later
        firing consumes it.  The returned handle exposes ``done`` /
        ``value`` / ``error``.  This is what lets a single OS thread drive
        all parties of a synchronous step (the differential-fuzzing
        harness's deterministic scheduler, :mod:`repro.fuzz.harness`): post
        every operation of the step in a fixed order, and the final post's
        drain fires the transition synchronously in the posting thread.

        ``policy`` (default: the connector's) is applied exactly as in the
        blocking path: under ``shed_newest`` a posted send past the bound
        that cannot complete in the submission drain is shed immediately.
        """
        return self._enqueue(self._sending[vertex], value, policy, None,
                             _LEAVE)

    def post_recv(self, vertex: str):
        """Asynchronous receive; see :meth:`post_send`.  The delivered value
        appears as ``handle.value`` once ``handle.done`` is true."""
        return self._enqueue(self._receiving[vertex], None, None, None,
                             _LEAVE)

    def close_vertex(self, vertex: str, error: Exception | None = None) -> None:
        """Close one boundary vertex.  Pending and future operations on it
        fail with ``error`` (default :class:`PortClosedError`); a
        :class:`PeerFailedError` is additionally remembered so that peers
        detected as stuck later blame the dead task, not a bare deadlock."""
        with self._world_stopped():
            self._note_closed(vertex, error)
            self._fail_queue(self._pending_send.get(vertex), error,
                             is_send=True)
            self._fail_queue(self._pending_recv.get(vertex), error,
                             is_send=False)
            region = self._route.get(vertex)
            if region is not None:
                region.pend.pop(vertex, None)
            self._wake_all_locked()

    def close(self) -> None:
        """Shut the whole connector down; all blocked tasks get
        :class:`PortClosedError`.

        Also frees what the engine built at run time — every region's
        per-state table, a lazy product's compose memo, and the step
        compiler's emitted functions — so that a closed connector dies
        by reference count here instead of leaving tens of thousands of
        objects to whichever later allocation trips the cyclic collector.
        Nothing fires after ``close()``, but the regions stay well-formed:
        a late drain would find empty tables and fill them on demand."""
        with self._world_stopped():
            self._closed = True
            for q in self._pending_send.values():
                self._fail_queue(q, is_send=True)
            for q in self._pending_recv.values():
                self._fail_queue(q, is_send=False)
            for r in self.regions:
                r.pend.clear()
                r.drop_rows()
                r.lazy.release()  # the compose memo
            if self._step_compiler is not None:
                self._step_compiler.release()
            self._wake_all_locked()

    # --------------------------------------------------- region plumbing

    def _adopt_regions(self, regions: Sequence[LazyRegion],
                       held: tuple | None = None) -> tuple:
        """Stamp runtime fields onto ``regions`` and rebuild the routing
        table, the ordered lock list and,
        under a new epoch, the bindings.  Callers other than ``__init__``
        hold ``_lock`` plus every *old* region lock, passed as ``held``: the
        new locks not among them are taken before any binding is published,
        and returned."""
        self.regions = list(regions)
        route: dict[str, LazyRegion] = {}
        for i, r in enumerate(self.regions):
            r._init_runtime()
            r.idx = i
            r.lock = self._group_lock or threading.Lock()
            for v in r.vertices:
                route[v] = r
        if self.regions:
            # Boundary vertices can drop out of an aot region's vertex set
            # (hide() keeps only label-visible ones); route them to the
            # first region so submissions never dangle.
            fallback = self.regions[0]
            for v in self.sources:
                route.setdefault(v, fallback)
            for v in self.sinks:
                route.setdefault(v, fallback)
        self._route = route
        seen: set[int] = set()
        ordered = []
        for r in self.regions:
            if id(r.lock) not in seen:
                seen.add(id(r.lock))
                ordered.append(r.lock)
        self._all_locks: tuple = tuple(ordered)
        # (Re)compile the step tier against the objects just adopted — both
        # construction and reconfigure land here, so the emitted closures
        # always bind the engine's *current* queues/buffers/closed set.
        self._compile_regions()
        fresh = () if held is None else tuple(
            lock for lock in ordered if lock not in held)
        self._acquire(fresh)
        self._epoch = epoch = self._epoch + 1
        pol = self._overload
        self._sending = {v: _Binding(v, True, q, route[v], pol, epoch)
                         for v, q in self._pending_send.items()}
        self._receiving = {v: _Binding(v, False, q, route[v], None, epoch)
                           for v, q in self._pending_recv.items()}
        return fresh

    def _compile_regions(self) -> None:
        """Install specialized step tables on every region (see
        :mod:`repro.compiler.steps`) unless ``compiled="off"``.  Each region
        is compiled from here on; the row of the state it is in is built
        now, so a refusal there raises from this call — with every region
        already compiled and its table empty of that row, which a drain then
        builds, and raises on, again."""
        self._step_compiler = None
        if self._compiled == "off":
            return
        # Imported here, not at module level: repro.compiler's package init
        # pulls in the textual-compilation stack, which transitively imports
        # runtime modules — a cycle at import time, but not at run time.
        from repro.compiler.steps import StepCompiler

        compiler = self._step_compiler = StepCompiler(
            self._pending_send,
            self._pending_recv,
            self.buffers,
            self.sources,
            self.sinks,
            self._closed_vertices,
            self._plan_for,
        )
        for r in self.regions:
            r.compiled = True
            r.table.clear()  # the initial state's steps
        for r in self.regions:
            # Specialize per visited state, starting with the current one.
            lazy = r.lazy
            r.table.put(r.state, compiler.compile_state(
                r.state, lazy.first if r.state == lazy.initial
                else lazy.expand(r.state)))
            r.reseat()  # an adopted region may come with cursors

    def _freeze(self) -> tuple:
        """Host hook (``_lock`` held): take every region lock."""
        locks = self._all_locks
        self._acquire(locks)
        return locks

    def _lock_owner(self, b: _Binding) -> _Binding | None:
        """Lock ``b``'s region and return ``b``, or the successor a reconfigure
        left, followed until current (``None``, nothing locked: it left).  The
        epoch is read under the lock it names, which a reconfigure holds."""
        while b is not None:
            lock = b.region.lock
            lock.acquire()
            if b.epoch == self._epoch:
                return b
            lock.release()
            b = b.successor
        return None

    def _wake_all_locked(self) -> None:
        """Wake every parked submitter (all region locks held).  Spurious
        wakes are fine — waiters re-check their op and the deadlock
        detector."""
        for qmap in (self._pending_send, self._pending_recv):
            for q in qmap.values():
                for op in q:
                    if op.event is not None:
                        wake(op.event)

    # ------------------------------------------------------- recovery layer

    def _pending_count(self) -> int:
        """Host hook (all region locks held): operations queued now."""
        return sum(len(q) for q in self._pending_send.values()) + sum(
            len(q) for q in self._pending_recv.values()
        )

    def _pending_ops(self, vertices):
        """Host hook (all region locks held)."""
        for v in vertices:
            for q in (self._pending_send.get(v), self._pending_recv.get(v)):
                if q:
                    yield from q

    @property
    def steps(self) -> int:
        """Global execution steps fired (the Fig. 12 metric) — the sum of
        the per-region counters plus the base carried across restores."""
        return self._steps_base + sum(r.fired for r in self.regions)

    @steps.setter
    def steps(self, value: int) -> None:
        for r in self.regions:
            r.fired = 0
        self._steps_base = value
        self._steps_approx = value

    @property
    def scan_total(self) -> int:
        """Candidates examined before fired steps (advanced only when
        metered, see :mod:`repro.runtime.metrics`)."""
        return self._scan_base + sum(r.scanned for r in self.regions)

    @property
    def quiescent(self) -> bool:
        """True when no operation is pending and no party is blocked."""
        with self._world_stopped():
            return self._pending_count() == 0 and self._blocked == 0

    def checkpoint(self, name: str = "") -> Checkpoint:
        """Snapshot the complete protocol state at a quiescent point.

        The snapshot covers each region's control state and round-robin
        cursor, every buffer's contents, the global step count, and the
        registered-party registry.  Raises :class:`CheckpointError` unless
        the engine is quiescent (no pending operations, no blocked waiters,
        nothing closed) — a mid-firing snapshot would not be a protocol
        state at all.
        """
        with self._world_stopped():
            self._require_quiescent("checkpoint")
            # regions are snapshotted in idx order (identical to list
            # order by construction — see _adopt_regions).  ``rr``
            # carries the per-state fairness cursor table so a restored
            # run makes the same nondeterministic choices the original
            # would have.
            regions = [
                RegionState(r.kind, r.state, tuple(sorted(r.cursors.items())))
                for r in self.regions
            ]
            return self._checkpoint_of(name, regions, self.buffers.snapshot())

    def restore(self, cp: Checkpoint) -> None:
        """Restore a checkpoint into this engine (same or structurally
        identical connector).

        Validates region kinds/state domains and the buffer signature
        before touching anything, so a failed restore leaves the engine
        unchanged.  An attached tracer is cleared: events fired before the
        restore (e.g. a fresh connector's constructor drain) predate the
        restored state.
        """
        with self._world_stopped():
            self._require_quiescent("restore")
            validated = self._validate_checkpoint(cp, self.regions, self.buffers)
            self.buffers.restore(cp.buffers)
            self._install_states(cp, self.regions, validated)
            self.steps = cp.steps
            self._suspect = None
            if self.tracer is not None:
                self.tracer.clear()
            # A quiescent-point snapshot has no internal transition
            # enabled, so this drain is a no-op in the normal case — it
            # only matters if a caller restores a hand-built checkpoint.
            for r in self.regions:
                r.dirty = True
            self._drain_all_locked()
            self._wake_all_locked()

    def reconfigure(
        self,
        regions: Sequence[LazyRegion],
        buffers: BufferStore,
        sources: frozenset[str],
        sinks: frozenset[str],
        vertex_map: dict[str, str],
        initial_occupancy: int | None = None,
        prepare=None,
    ) -> None:
        """Replace this engine's protocol wholesale — the re-parametrization
        primitive.

        Called with the regions/buffers of the connector re-instantiated at
        its new arity and ``vertex_map`` mapping every *surviving* old
        boundary vertex to its new name.  Pending operations of surviving
        parties are migrated to their renamed vertices **reusing the same
        deque objects**, so a concurrently timing-out waiter (which removes
        its op from the deque it captured) can never leave a stale entry in
        a queue the engine still consults.  Operations on departed vertices
        fail with :class:`PortClosedError`; recorded peer failures are
        cleared (the departure *is* the recovery), and the drain at the end
        fires anything the smaller protocol now enables — unblocking
        survivors that were parked mid-barrier.

        Locking: the world stops under ``_lock`` plus every *old* region
        lock; the new regions' locks that are not already held (all of them
        fresh under ``"regions"``, none under ``"global"``, whose one group
        lock is old and new at once) are additionally taken before the new
        bindings are published: a submitter resolving one parks on its lock
        until the swap, closing drain included, is over; one holding an old
        binding then follows its ``successor``.  ``prepare`` runs first,
        once the world is stopped.
        """
        with self._lock:
            old_locks = self._freeze()
            new_acquired: tuple = ()
            try:
                if prepare is not None:
                    prepare()
                self._steps_base = self.steps
                self._scan_base = self.scan_total
                old_send, old_recv = self._pending_send, self._pending_recv
                old_bound = {**self._sending, **self._receiving}
                self.buffers = buffers
                self._pending_send = {v: deque() for v in sources}
                self._pending_recv = {v: deque() for v in sinks}
                for old_map, new_map, was_send in (
                    (old_send, self._pending_send, True),
                    (old_recv, self._pending_recv, False),
                ):
                    for v, q in old_map.items():
                        nv = vertex_map.get(v)
                        if nv is None or nv not in new_map:
                            self._fail_queue(
                                q,
                                PortClosedError(
                                    f"vertex {v!r} left the protocol signature"
                                ),
                                is_send=was_send,
                            )
                            continue
                        for op in q:
                            op.vertex = nv
                        if self._metrics is not None and q and nv != v:
                            self._metrics.move_submitted(v, nv, len(q),
                                                         was_send)
                        new_map[nv] = q  # reuse the deque: see docstring
                self._remap_boundary(vertex_map, sources, sinks,
                                     initial_occupancy)
                self._plans.clear()
                # Fresh locks, unreachable until now: acquiring them under
                # the old locks cannot deadlock.
                new_acquired = self._adopt_regions(regions, old_locks)
                for v, b in old_bound.items():
                    b.successor = (self._sending if b.is_send else
                                   self._receiving).get(vertex_map.get(v))
                for b in (*self._sending.values(), *self._receiving.values()):
                    if b.queue:
                        b.region.pend[b.vertex] = None
                if self._metrics is not None:
                    # The boundary signature changed: rebind the per-vertex
                    # metric children and sampled gauges to the new vertex set.
                    self._metrics.attach_engine(self)
                for r in self.regions:
                    r.dirty = True
                self._drain_all_locked()
                self._wake_all_locked()
            finally:
                self._release(new_acquired)
                self._release(old_locks)

    # ------------------------------------------------------------ internals

    def _count_withdrawn(self, vertex: str, is_send: bool) -> None:
        """Count one submitted-but-never-completed operation (timeout,
        failed try_* probe, or failure delivery).  Callers hold the owning
        region's lock (or every lock), matching the submit-side counters."""
        mx = self._metrics
        if mx is not None:
            child = (mx.wd_send if is_send else mx.wd_recv).get(vertex)
            if child is not None:  # vertex unknown only mid-reconfigure
                child.value += 1.0

    def _fail_queue(self, queue: deque | None, error: Exception | None = None,
                    *, is_send: bool) -> None:
        if not queue:
            return
        while queue:
            op = queue.popleft()
            op.error = error or PortClosedError(f"vertex {op.vertex!r} closed")
            self._count_withdrawn(op.vertex, is_send)
            if op.event is not None:
                wake(op.event)

    # ------------------------------------------------- submission hot path

    def _enqueue(self, b: _Binding, value=None,
                 policy: OverloadPolicy | None = None,
                 timeout: float | None = None, unresolved: int = _PARK) -> _Op:
        """The submission prologue of every entry point, through binding
        ``b`` (a port's own, a post's looked up): lock the owner region,
        admit, enqueue and return the op, drain the region, release.
        Unobserved, no clock is read but for a park.  ``unresolved``
        (``_LEAVE``/``_WITHDRAW``/``_PARK``) says what becomes of an op the
        drain neither completed nor failed —
        decided under the owner lock, so a later firing or failure is sure
        to see it.  A probe and a blocking submit raise the op's error; the
        latter parks until the op is resolved or ``timeout`` (else
        ``default_timeout``) has passed since its enqueue stamp."""
        owner = b
        region = b.region
        region.lock.acquire()
        if b.epoch != self._epoch:  # superseded: see _lock_owner
            region.lock.release()
            owner = self._lock_owner(b)
            if owner is None:
                raise PortClosedError(
                    f"vertex {b.vertex!r} left the protocol signature")
            region = owner.region
        queue, vertex = owner.queue, owner.vertex
        op = _Op(vertex, value)
        try:
            if self._closed or vertex in self._closed_vertices:
                raise self._vertex_errors.get(vertex) or PortClosedError(
                    f"vertex {vertex!r} closed")
            if owner.is_send and self._draining:
                raise PortClosedError(
                    f"vertex {vertex!r} rejected: connector draining"
                )
            if self._observing or self._parties:
                # Timing stamps and liveness marks feed metrics, the
                # tracer's wait spans, and the watchdog.  A ``try_*``
                # probe stays unstamped (it never waits, and the
                # latency histogram reads 0.0 for it).
                now = time.monotonic()
                if unresolved != _WITHDRAW:
                    op.t_enq = now
                if self._vertex_party:  # no call when nobody registered
                    self._mark_active(vertex, now)
                mx = self._metrics
                if mx is not None:
                    child = (mx.sub_send if owner.is_send
                             else mx.sub_recv).get(vertex)
                    if child is not None:  # unknown only mid-reconfigure
                        child.value += 1.0
            queue.append(op)
            region.pend[vertex] = None
            self._drain_region(region, vertex)
            if op.done:
                return op
            if unresolved == _WITHDRAW:
                queue.remove(op)
                if not queue:
                    region.pend.pop(vertex, None)
                self._count_withdrawn(vertex, owner.is_send)
                return op
            pol = policy if policy is not None else owner.policy
            if (
                pol is not None
                and pol.kind != "block"
                and len(queue) > pol.max_pending
            ):
                # shed_newest: capture the value and complete the op as
                # if sent — the protocol never sees it, the submitter is
                # released rather than parked.  ``op`` is the tail: only
                # a submitter holding this lock appends.
                queue.pop()
                if not queue:
                    region.pend.pop(vertex, None)
                self._record_shed(vertex, value, pol.kind,
                                  pol.dead_letter_capacity)
                op.done = True
                return op
            if unresolved == _PARK:
                # Install the op's private wake slot while still under
                # the region lock, and stamp an op nothing stamped yet:
                # a party registered while it waits must see a real
                # ``waited``.  A post handle is polled, never waited
                # on, and gets neither.
                op.event = wake_slot()
                if not op.t_enq:
                    op.t_enq = time.monotonic()
        finally:
            region.lock.release()
        if op.done or unresolved == _LEAVE:
            return op
        if op.error is not None:
            raise op.error
        if unresolved == _PARK:
            timeout = self.default_timeout if timeout is None else timeout
            self._wait_blocked(owner, op, timeout,
                               None if timeout is None else op.t_enq + timeout)
        return op

    submit = _enqueue  # a port's send/recv: one call from its region lock

    def _withdraw_expired(self, b: _Binding, op: _Op) -> bool:
        """Cancel a timed-out op under its owner region's lock; ``False``
        when a firing or failure resolved it first (the caller's loop then
        observes the resolution)."""
        b = self._lock_owner(b)
        if b is None:
            # The vertex left the signature; reconfigure failed the op.
            return op.error is None and not op.done
        region, queue = b.region, b.queue
        try:
            if op.done or op.error is not None:
                return False
            was_head = bool(queue) and queue[0] is op
            try:
                queue.remove(op)
            except ValueError:
                pass
            self._count_withdrawn(op.vertex, b.is_send)
            if not queue:
                region.pend.pop(op.vertex, None)
            elif was_head:
                # The new head may pass a data guard this one failed: drain
                # here, under the lock already held, as its submitter would.
                self._drain_region(region)
            return True
        finally:
            region.lock.release()

    # ------------------------------------------------------ overload layer

    def begin_drain(self) -> None:
        """Stop admitting new sends; receives keep flushing buffered values.

        Already-queued sends complete normally (they were admitted); new
        ``send``/``try_send`` calls raise :class:`PortClosedError` so
        producers see a clean close instead of a hang.
        """
        with self._world_stopped():
            self._draining = True
            self._wake_all_locked()

    @property
    def drained(self) -> bool:
        """True when no send is pending and the buffered-value count is
        back down to the connector's initial occupancy (initialized tokens
        of ring connectors are protocol state, not user data)."""
        locks = self._all_locks
        self._acquire(locks)
        try:
            if any(self._pending_send.values()):
                return False
            occupancy = sum(
                self.buffers.occupancy(n) for n in self.buffers.names()
            )
            return occupancy <= self._initial_occupancy
        finally:
            self._release(locks)

    # -------------------------------------------------- deadlock detection

    def _stuck_count(self) -> int:
        """Host hook (all locks held): the detector's pending count."""
        # Self-heal: a drain that raised left its region dirty, with
        # something maybe enabled; draining it here keeps detection sound.
        self._drain_all_locked()
        return self._pending_count()

    def _stuck_state(self) -> dict:
        """Host hook (all locks held): non-empty queue depths by vertex and
        the region states, for the deadlock diagnostic."""
        return {
            "pending_sends": {
                v: len(q) for v, q in self._pending_send.items() if q
            },
            "pending_recvs": {
                v: len(q) for v, q in self._pending_recv.items() if q
            },
            "region_states": [r.state for r in self.regions],
        }

    def _deliver_deadlock(self, err: Exception) -> None:
        """Host hook (all locks held): fail every queue in place."""
        for q in self._pending_send.values():
            self._fail_queue(q, err, is_send=True)
        for q in self._pending_recv.values():
            self._fail_queue(q, err, is_send=False)
        for r in self.regions:
            r.pend.clear()

    # ------------------------------------------------------- firing engine

    def _drain_region(self, region, posted=None) -> None:
        """Fire ``region`` until quiescent (its lock held) — the one drain
        loop.

        The loop is fused around the compiled step tier
        (:mod:`repro.compiler.steps`, docs/COMPILER.md): the per-fire
        invariant (the observability probe) is hoisted so it is paid once
        per drain, not once per step.  A compiled region fires from its
        state's :class:`~repro.compiler.steps.StateRow` — candidates, cursor
        and successor links, so a warm iteration hashes no control state —
        and asks :meth:`_row_of` where it holds none; a region that is not
        compiled (``compiled="off"``) is interpreted step by step with
        identical behaviour.  Cursors, fired counters and the observability
        epilogue are bit-for-bit the same in both tiers, so checkpoints and
        traces round-trip across them.

        ``posted`` is the vertex whose post this drain serves.  On a *clean*
        region only that post has happened since a scan found nothing
        enabled: no scan if no candidate names the vertex, or the narrowest
        that does needs more pending vertices than there are."""
        row = region.row
        pend = region.pend
        if posted is not None and row is not None and not region.dirty:
            widths = row.by_vertex  # None until the state is revisited
            if widths is not None:
                least = widths.get(posted)
                if least is None or least > len(pend):
                    return
        region.dirty = False
        cursors = region.cursors
        obs = self._observing or self._vertex_party
        came = at = None  # row and candidate that led to ``region.state``
        try:
            while True:
                if row is None:
                    if not region.compiled:
                        if self._fire_one_interp(region, obs):
                            continue
                        return
                    row = self._row_of(region, came, at)
                entries = row.entries
                n = len(entries)
                start = row.cursor or 0
                for k in range(n):
                    at = (start + k) % n
                    e = entries[at]
                    r = e.fire(pend, obs)
                    if r is None:
                        continue
                    after = (at + 1) % n
                    if after != row.cursor:
                        row.cursor = cursors[row.state] = after
                    came, row = row, row.links[at]
                    if row is None:
                        region.advance(came.steps[at])
                    else:
                        region.state = row.state
                    region.fired += 1
                    self._steps_approx += 1
                    if r is not True:
                        self._observe_firing(region, e.label, k, *r)
                    break
                else:
                    return
        except BaseException:
            region.dirty = True  # cleared, yet quiescence was not reached
            raise
        finally:
            if region.links:
                region.row = row

    def _row_of(self, region, came, at):
        """The row of a compiled region's state, for a drain that holds
        none.  A state the table lacks (new, evicted, or refused before) is
        compiled.  One it has is being *revisited*:
        where nothing evicts, that is when the row is indexed by vertex and
        memoised as where candidate ``at`` of row ``came`` leads — a state
        seen once pays for neither."""
        row = region.table.get(region.state)
        if row is None:
            return self._compile_region_state(region, came, at)
        if region.links:
            if row.by_vertex is None:
                row.index()
            if came is not None:
                came.links[at] = row
        return row

    def _observe_firing(self, region, label, k, completed_sends,
                        completed_recvs, deliveries, enq) -> None:
        """Post-firing observability epilogue of both step tiers (region
        lock held).  ``k`` is the fired
        candidate's scan position, ``enq`` the ``(vertex, t_enq)`` of every
        operation the firing completed.  One clock read per fired step,
        shared by liveness stamping, the latency histogram, and the
        tracer."""
        t = time.monotonic()
        if self._vertex_party:
            for v in completed_sends:
                self._mark_active(v, t)
            for v in completed_recvs:
                self._mark_active(v, t)
        mx = self._metrics
        if mx is not None:
            # Plain ints and attribute adds, no further call frames:
            # pull-sampled (with engine.steps) at collect time, and at a few
            # µs/step the metric budget is a few hundred ns
            # (bench_observe.py).
            region.scanned += k + 1
            done = mx.done
            for v, _te in enq:
                child = done.get(v)
                if child is not None:
                    child.value += 1.0
            # The latency histogram samples every LATENCY_STRIDE-th fired
            # step (region.fired was already advanced): a full observe per
            # step is the single largest metric cost, and the distribution
            # doesn't need every step.
            if enq and (region.fired - 1) & _LAT_MASK == 0:
                # Age of the oldest completed op; 0.0 when every completed
                # op was non-blocking (t_enq unstamped).
                min_te = min((te for _v, te in enq if te), default=0.0)
                with self._stat_lock:
                    mx.latency_child.observe(t - min_te if min_te else 0.0)
        if self.tracer is not None:
            self.tracer.record(
                region.idx,
                label,
                completed_sends,
                completed_recvs,
                deliveries,
                t=t,
                waits=[(v, t - te if te else 0.0) for v, te in enq],
            )

    def _drain_all_locked(self) -> None:
        """Drain every dirty region to quiescence (all region locks held —
        construction, restore, reconfigure, and detection self-heal).
        Regions share nothing, so one pass leaves every region quiescent."""
        for region in self.regions:
            if region.dirty:
                self._drain_region(region)

    def _compile_region_state(self, region, came, at):
        """Fill a compiled region's table at its current control state
        (new, or evicted since) from row ``came``, whose
        candidate ``at`` led here, and return the new entry.  A refusal
        propagates, the table untouched."""
        state = region.state
        row = self._step_compiler.compile_state(
            state, region.lazy.expand(state, came, at), came)
        row.cursor = region.cursors.get(state)
        region.table.put(state, row)
        return row

    def _fire_one_interp(self, region, obs) -> bool:
        """Try to fire one transition of ``region`` on the interpretive
        firing engine — the ``compiled="off"`` tier and the reference the
        compiled one is held to (plan evaluation via
        :class:`~repro.automata.simplify.FiringPlan`).  Called from
        :meth:`_drain_region` only (region lock held); ``obs`` is its
        hoisted "anything observing" probe."""
        steps = region.candidates()
        n = len(steps)
        if n == 0:
            return False
        pending = region.pend
        # Fairness: round-robin over the candidate list, with one cursor
        # *per control state*.  A cursor is an index into this state's
        # candidate list; the old engine shared one cursor per region, so a
        # cycle of states whose lists differ in length/order could revisit
        # the choice state at the same index forever and starve a competing
        # candidate (regression: test_engine.py rr-rotation tests).  After
        # a firing the cursor moves just past the fired candidate, so every
        # persistently enabled candidate at a recurring state is scanned
        # first within n visits.
        state0 = region.state
        start = region.cursors.get(state0, 0) % n
        for k in range(n):
            step = steps[(start + k) % n]
            label = step.label
            offers = None
            enabled = True
            for v in label:
                if v in self._closed_vertices:
                    enabled = False
                    break
                sq = self._pending_send.get(v)
                if sq is not None:
                    if not sq:
                        enabled = False
                        break
                    if offers is None:
                        offers = {}
                    offers[v] = sq[0].value
                    continue
                rq = self._pending_recv.get(v)
                if rq is not None and not rq:
                    enabled = False
                    break
            if not enabled:
                continue
            plan = self._plan_for(step)
            slots = plan.evaluate(offers or {}, self.buffers)
            if slots is None:
                continue
            # Fire!
            deliveries = plan.commit(self.buffers, slots)
            completed_sends: list[str] = []
            completed_recvs: list[str] = []
            enq: list[tuple[str, float]] = []
            for v in label:
                queue = self._pending_send.get(v)
                if queue is not None:
                    op = queue.popleft()
                    completed_sends.append(v)
                else:
                    queue = self._pending_recv.get(v)
                    if queue is None:
                        continue
                    op = queue.popleft()
                    op.value = deliveries.get(v)
                    completed_recvs.append(v)
                op.done = True
                if op.event is not None:
                    wake(op.event)
                if not queue:
                    pending.pop(v, None)
                enq.append((v, op.t_enq))
            region.advance(step)
            region.cursors[state0] = (start + k + 1) % n
            region.fired += 1
            self._steps_approx += 1
            if obs:
                self._observe_firing(
                    region, label, k, completed_sends, completed_recvs,
                    deliveries.items(), enq,
                )
            return True
        return False

    def _plan_for(self, step) -> FiringPlan:
        """``(label, id(atoms), id(effects))`` → ``(plan, atoms, effects)``:
        by identity, as a step's function is found; the tuples kept alive."""
        label, atoms, effects = step.label, step.atoms, step.effects
        hit = self._plans.get((label, id(atoms), id(effects)))
        if hit is None:
            # Not met by this engine yet: by the process, usually.
            hit = self._plans[label, id(atoms), id(effects)] = (
                shared_plan(label, atoms, effects, self.sources, self.sinks,
                            self.registry), atoms, effects)
        return hit[0]

    # ------------------------------------------------------------- sampling

    def pending_depths(self) -> list[tuple[str, str, int]]:
        """Queue-depth rows ``(vertex, "send"|"recv", depth)`` for the
        metrics gauges, read under the region locks."""
        locks = self._all_locks
        self._acquire(locks)
        try:
            rows = [(v, "send", len(q)) for v, q in self._pending_send.items()]
            rows += [(v, "recv", len(q)) for v, q in self._pending_recv.items()]
            return rows
        finally:
            self._release(locks)

    def buffered_total(self) -> int:
        """Total buffered-value count across the store (metrics gauge)."""
        locks = self._all_locks
        self._acquire(locks)
        try:
            return sum(
                self.buffers.occupancy(n) for n in self.buffers.names()
            )
        finally:
            self._release(locks)

    # ------------------------------------------------------------- stats

    def stats(self) -> dict:
        """Counters and sizes, readable at any time, ``close()`` included.

        ``steps``, ``parks`` (blocking submits that had to wait on their
        wake slot) and ``expansions`` (global states expanded by the
        regions' products, however cheaply) only ever count up.
        ``cached_states`` (states resident in the regions' tables),
        ``compiled_states`` (states whose table entry is compiled — the
        same states again on a compiled region) and ``emitted_steps``
        (distinct step functions behind those entries — one per distinct
        composed step, not one per state and transition) describe what is
        installed now:
        they restart with ``reconfigure`` and read 0 after ``close()``,
        which frees all three."""
        out = {
            "steps": self.steps,
            "plans": len(self._plans),
            "regions": len(self.regions),
            "parties": len(self._parties),
            "blocked": self._blocked,
            "parks": self._parks,
            "shed": self.dead.count(),
            "draining": self._draining,
            "concurrency": self.concurrency,
            "step_tier": self._compiled,
        }
        compiled = [r for r in self.regions if r.compiled]
        out["expansions"] = sum(r.lazy.expansions for r in self.regions)
        out["cached_states"] = sum(len(r.table) for r in self.regions)
        out["compiled_regions"] = len(compiled)
        out["compiled_states"] = sum(len(r.table) for r in compiled)
        compiler = self._step_compiler
        out["emitted_steps"] = compiler.emitted_steps if compiler else 0
        return out
