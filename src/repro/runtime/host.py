"""The task-facing half of the engine.

:class:`EngineHost` is how :class:`~repro.runtime.engine.CoordinatorEngine`
faces the tasks: parties register, blocked submitters tick between their
wakeup slot, their deadline and the deadlock detector, admin operations
validate before they mutate, and a re-parametrization renames everything
kept per boundary vertex.  It is a module of its own so that this protocol
and the firing engine each stay a reviewable size (docs/DECISIONS.md row
13).  The engine supplies the pending-operation side — ``_freeze()``,
``_steps_approx``, ``_pending_count()``, ``_pending_ops(vertices)``,
``_stuck_count()``, ``_stuck_state()``, ``_deliver_deadlock(err)``,
``_wake_all_locked()`` and ``_withdraw_expired(binding, op)`` — each
documented where ``engine.py`` defines it.
"""

from __future__ import annotations

import threading
import time
from _thread import allocate_lock
from contextlib import contextmanager

from repro.automata.constraint import DEFAULT_REGISTRY
from repro.runtime.overload import DeadLetterBuffer, OverloadPolicy
from repro.runtime.recovery import Checkpoint
from repro.runtime.trace import render_deadlock_diagnostic
from repro.util.errors import (
    CheckpointError,
    DeadlockError,
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
)

#: How long a blocked operation waits between deadlock/timeout re-checks.
_WAIT_TICK = 0.1

#: Seconds a deadlock sighting (every registered party blocked, nothing
#: enabled) must stand before the detector delivers it: a task the group
#: is still spawning gets a chance to register first.  Read at each
#: sighting, so a test that needs another window patches this name.
DETECTION_GRACE = 0.05


def wake_slot():
    """A one-shot wake slot, armed: a raw lock created held.  The waiter
    parks in ``slot.acquire(True, tick)`` — which, succeeding, leaves the
    slot armed again for its next wait — and :func:`wake` releases it.
    Whoever resolves an operation sets ``done``/``error`` first, then wakes
    its slot, so a waiter tests those after every wake.  (A raw lock hands
    off in 19 µs on the dev box, a ``threading.Event`` allocated per park
    in 47: EXPERIMENTS.md E12.)"""
    slot = allocate_lock()
    slot.acquire()
    return slot


def wake(slot) -> None:
    """Wake the waiter parked on ``slot`` — now, or when it next parks."""
    try:
        slot.release()
    except RuntimeError:
        pass  # already woken (a spurious wake-all came first): one is enough


class _Party:
    """One registered party (task) of the engine, refcounted by port.

    ``last_active``/``steps_active`` record the party's last *protocol
    activity* — submitting an operation or having one completed by a firing
    — as a wall-clock instant and an engine step count.  A party that stays
    inactive while the step count advances is stalled or pathologically
    slow (watchdog material); one that stays inactive while nothing moves
    anywhere is deadlock material.
    """

    __slots__ = ("name", "refs", "vertices", "last_active", "steps_active")

    def __init__(self, name: str):
        self.name = name
        self.refs = 0
        self.vertices: set[str] = set()
        self.last_active = time.monotonic()
        self.steps_active = 0


class EngineHost:
    """The engine's task-facing state and protocol (module docstring).
    ``_lock`` is the registry lock, outermost in the engine's lock order:
    it guards the party registry, the blocked-waiter count and the deadlock
    suspect."""

    def __init__(self, concurrency: str, sources: frozenset[str],
                 sinks: frozenset[str], registry, tracer, default_timeout,
                 overload, metrics, compiled: str, buffers):
        if compiled not in ("auto", "off"):
            raise ValueError(f"compiled must be 'auto' or 'off', not {compiled!r}")
        self.concurrency = concurrency
        self.sources = sources
        self.sinks = sinks
        self.registry = registry or DEFAULT_REGISTRY
        self.tracer = tracer
        # ConnectorMetrics hook bundle (repro.runtime.metrics) or None.
        # Every hot-path use is guarded by one `is not None` check, so an
        # unobserved engine runs the pre-observability code path.
        self._metrics = metrics
        self.default_timeout = default_timeout
        # Compiled step tier (repro.compiler.steps): "auto" compiles every
        # region, "off" interprets everywhere.
        self._compiled = compiled

        self._lock = threading.Lock()
        # Leaf lock: shared metric structures (latency histogram, shed memo
        # dict).
        self._stat_lock = threading.Lock()

        self._closed_vertices: set[str] = set()
        self._vertex_errors: dict[str, Exception] = {}
        self._closed = False
        self._blocked = 0
        self._parks = 0  # blocking waits ever entered: stats()["parks"]

        if overload is not None and not isinstance(overload, OverloadPolicy):
            raise TypeError(
                f"overload takes one OverloadPolicy, not {overload!r}")
        # Every source vertex binds this policy; a ``block`` one binds as
        # none (receives never take one: there is no value to shed).
        self._overload = (overload if overload is not None
                          and overload.kind != "block" else None)
        self.dead = DeadLetterBuffer()
        self._draining = False
        # Baseline buffered-value count: token-ring connectors permanently
        # hold protocol tokens, so "drained" means back *down to* this
        # occupancy, not necessarily empty.
        self._initial_occupancy = sum(
            buffers.occupancy(n) for n in buffers.names())

        self._parties: dict[object, _Party] = {}
        self._vertex_party: dict[str, _Party] = {}
        self._party_gen = 0  # bumped on every (un)registration
        self._peer_failures: list[PeerFailedError] = []
        # Candidate deadlock sighting awaiting confirmation:
        # ((steps, party_gen, stuck), first_seen_monotonic).
        self._suspect: tuple | None = None

        # steps/scan totals are summed over what is live plus a base
        # carried across restore/reconfigure.
        self._steps_base = 0
        self._scan_base = 0

    # ------------------------------------------------------- stopping the world

    @staticmethod
    def _acquire(locks) -> None:
        for lock in locks:
            lock.acquire()

    @staticmethod
    def _release(locks) -> None:
        for lock in reversed(locks):
            lock.release()

    @contextmanager
    def _world_stopped(self):
        """Hold the registry lock plus whatever ``_freeze`` adds: nothing
        is submitted, fired, resolved or (un)registered inside."""
        with self._lock:
            locks = self._freeze()
            try:
                yield
            finally:
                self._release(locks)

    # ----------------------------------------------------------- party registry

    def register_party(self, key, name: str = "", vertex: str | None = None) -> None:
        """Declare a party (task) of this protocol instance.

        One registration per (party, port); re-registrations are refcounted.
        Deadlock detection counts registered parties only: all of them
        blocked + quiescent engine (stable for :data:`DETECTION_GRACE`
        seconds) fails every blocked operation.  With none registered it is
        off.
        """
        with self._world_stopped():
            party = self._parties.get(key)
            if party is None:
                party = self._parties[key] = _Party(name)
            party.refs += 1
            if name and not party.name:
                party.name = name
            if vertex is not None:
                party.vertices.add(vertex)
                self._vertex_party[vertex] = party
            party.last_active = time.monotonic()
            party.steps_active = self._steps_approx
            self._party_gen += 1
            self._suspect = None

    def unregister_party(self, key, vertex: str | None = None) -> None:
        """Drop one registration of ``key`` (a party exits, or one of its
        ports closes).  Wakes blocked waiters so detection re-evaluates
        against the smaller party set."""
        with self._world_stopped():
            party = self._parties.get(key)
            if party is None:
                return
            if vertex is not None:
                party.vertices.discard(vertex)
                if self._vertex_party.get(vertex) is party:
                    del self._vertex_party[vertex]
            party.refs -= 1
            if party.refs <= 0:
                del self._parties[key]
            self._party_gen += 1
            self._suspect = None
            self._wake_all_locked()

    def _mark_active(self, vertex: str, now: float | None = None) -> None:
        """Record protocol activity for the party owning ``vertex``:
        submitting an op or having one completed by a firing."""
        party = self._vertex_party.get(vertex)
        if party is not None:
            party.last_active = now if now is not None else time.monotonic()
            party.steps_active = self._steps_approx

    def party_progress(self) -> tuple[list[dict], int]:
        """Watchdog probe: one row per registered party.

        Each row reports the party's pending-operation count, how long its
        *oldest* pending op has waited (``waited``), how long since the
        party's last protocol activity (``idle`` — a submitted op or a
        firing that completed one), and how many global steps the engine
        fired since that activity (``steps_since_active``).  ``idle`` high
        while ``steps_since_active > 0`` is the stall signature: this party
        went quiet while its peers kept firing — covering both a task
        wedged in application code (no pending op at all) and one starved
        behind an old pending op.  When nothing fires anywhere the step
        count freezes too, and that case belongs to the deadlock detector.
        Returns ``(rows, engine_steps)``.
        """
        with self._world_stopped():
            now = time.monotonic()
            steps = self.steps
            rows = []
            for i, party in enumerate(self._parties.values()):
                pending = 0
                oldest_t: float | None = None
                for o in self._pending_ops(party.vertices):
                    pending += 1
                    if oldest_t is None or o.t_enq < oldest_t:
                        oldest_t = o.t_enq
                rows.append({
                    "name": party.name or f"party{i}",
                    "vertices": tuple(sorted(party.vertices)),
                    "pending": pending,
                    "waited": (now - oldest_t) if oldest_t is not None else 0.0,
                    "idle": now - party.last_active,
                    "steps_since_active": steps - party.steps_active,
                })
            return rows, steps

    # ------------------------------------------------------ closing and overload

    def _note_closed(self, vertex: str, error: Exception | None) -> None:
        """Book one closed vertex (``_lock`` held); a peer failure is kept
        for the detector to blame."""
        self._closed_vertices.add(vertex)
        if error is not None:
            self._vertex_errors[vertex] = error
            if isinstance(error, PeerFailedError):
                self._peer_failures.append(error)
        self._suspect = None

    def _record_shed(self, vertex: str, value, kind: str, capacity) -> None:
        """Book one shed value: dead-letter capture plus the metric."""
        self.dead.capture(vertex, value, kind, self.steps, capacity)
        if self._metrics is not None:
            with self._stat_lock:
                self._metrics.shed(vertex, kind)

    def dead_letters(self, vertex: str | None = None):
        """Shed values retained per vertex (or all, in shed order)."""
        return self.dead.of(vertex) if vertex is not None else self.dead.all()

    def shed_count(self, vertex: str | None = None) -> int:
        """Exact count of values ever shed (survives dead-letter eviction)."""
        return self.dead.count(vertex)

    @property
    def draining(self) -> bool:
        return self._draining

    # --------------------------------------------------------- blocking wait

    def _wait_blocked(self, binding, op, timeout, deadline) -> None:
        """Blocked-submitter loop (no locks held): park on the op's wake
        slot until it is resolved or its deadline passes.  The detector is
        consulted when this waiter is the one that brings the blocked count
        up to the party count, and after any wait that ended — tick expired,
        or a wake-all — with the op unresolved; a park that a firing
        resolves costs the two registry-lock trips below and nothing else."""
        slot = op.event
        with self._lock:
            self._blocked += 1
            self._parks += 1
            threshold = len(self._parties)
            # The detector's own two conditions, read without its freeze: a
            # woken peer still counts as blocked until it runs again, which
            # under a GIL is after its waker parks — but its operation has
            # left the queues.  In a deadlock nothing moves and both hold.
            detect = (0 < threshold <= self._blocked
                      and threshold <= self._pending_count())
        try:
            while True:
                if detect:
                    self._maybe_deadlock()
                if op.done:
                    return
                if op.error is not None:
                    raise op.error
                tick = _WAIT_TICK
                if deadline is not None:
                    tick = min(tick, deadline - time.monotonic())
                if tick > 0:
                    slot.acquire(True, tick)
                elif self._withdraw_expired(binding, op):
                    raise ProtocolTimeoutError(op.vertex, timeout)
                detect = not op.done and op.error is None
        finally:
            with self._lock:
                self._blocked -= 1

    # -------------------------------------------------- deadlock detection

    def _maybe_deadlock(self) -> None:
        """Deadlock detection — caller holds *no* locks.  Takes the
        registry lock, then ``_freeze()``, for a consistent snapshot of
        pending operations and blocked waiters."""
        with self._lock:
            threshold = len(self._parties)
            if not threshold:
                return
            locks = self._freeze()
            try:
                # ``stuck`` counts committed (queued, not-yet-completed)
                # operations; completed operations leave at firing time and
                # withdrawn (timed-out / non-blocking) ones where they are
                # withdrawn, so each remaining entry belongs to exactly one
                # blocked waiter.  Requiring the blocked-waiter count to
                # agree means a non-blocking probe or an about-to-block
                # submitter can never inflate the count into a spurious
                # detection.
                stuck = self._stuck_count()
                if stuck < threshold or self._blocked < threshold:
                    self._suspect = None
                    return
                if DETECTION_GRACE > 0.0:
                    # Confirmation window: a party that has not *registered*
                    # yet (e.g. a task the group is still spawning) must get
                    # a chance to appear before we conclude the registered
                    # set is complete.  Any firing or (un)registration resets
                    # the sighting.
                    mark = (self.steps, self._party_gen, stuck)
                    now = time.monotonic()
                    if self._suspect is None or self._suspect[0] != mark:
                        self._suspect = (mark, now)
                        return
                    if now - self._suspect[1] < DETECTION_GRACE:
                        return
                self._deliver_deadlock(self._stuck_error(threshold))
                self._suspect = None
            finally:
                self._release(locks)

    def _stuck_error(self, threshold: int) -> Exception:
        """The error delivered to all blocked parties once a deadlock is
        confirmed: a PeerFailedError blaming the first crashed peer when
        supervision recorded one, else a DeadlockError with a full
        diagnostic dump."""
        diagnostic = render_deadlock_diagnostic(
            parties={
                (p.name or f"party{i}"): sorted(p.vertices)
                for i, p in enumerate(self._parties.values())
            },
            blocked=self._blocked,
            events=self.tracer.events[-8:] if self.tracer is not None else (),
            **self._stuck_state(),
        )
        if self._peer_failures:
            first = self._peer_failures[0]
            return PeerFailedError(
                first.task,
                first.cause,
                message=(
                    f"peer task {first.task!r} failed ({first.cause!r}); "
                    f"all remaining parties blocked\n{diagnostic}"
                ),
            )
        return DeadlockError(
            f"all {threshold} parties blocked with no enabled transition",
            diagnostic=diagnostic,
        )

    # ------------------------------------- admin skeleton: validate, then mutate

    def _require_quiescent(self, action: str) -> None:
        """Caller has stopped the world."""
        pending = self._pending_count()
        if pending or self._blocked:
            raise CheckpointError(
                f"{action} requires a quiescent engine: {pending} pending "
                f"operation(s), {self._blocked} blocked waiter(s)"
            )
        if self._closed or self._closed_vertices:
            raise CheckpointError(
                f"{action} requires a fully open connector: "
                + ("engine closed" if self._closed
                   else f"closed vertices {sorted(self._closed_vertices)}")
            )
        if self._draining:
            raise CheckpointError(
                f"{action} rejected: connector is draining (a drain ends in "
                "close, so the snapshot could never be resumed here — "
                "checkpoint at a quiescent point before draining instead)"
            )

    def _boundary(self) -> tuple:
        return (tuple(sorted(self.sources)), tuple(sorted(self.sinks)))

    def _checkpoint_of(self, name: str, regions, buffers) -> Checkpoint:
        """Wrap region states and buffer contents gathered by the backend
        in the header both write: step count, party registry, boundary."""
        return Checkpoint(
            connector=name,
            regions=tuple(regions),
            buffers=buffers,
            steps=self.steps,
            parties=tuple(
                (p.name or f"party{i}", tuple(sorted(p.vertices)))
                for i, p in enumerate(self._parties.values())
            ),
            boundary=self._boundary(),
        )

    def _validate_checkpoint(self, cp: Checkpoint, regions, store) -> list:
        """Everything that can make ``cp`` unfit for ``regions`` and
        ``store``, checked before anything is touched (a failed restore
        leaves the engine unchanged).  Returns one validated control state
        per region."""
        if cp.boundary and tuple(cp.boundary) != self._boundary():
            raise CheckpointError(
                "checkpoint boundary signature "
                f"{tuple(cp.boundary)!r} does not match engine "
                f"{self._boundary()!r} — the snapshot was taken from a "
                "structurally different connector (e.g. before "
                "a re-parametrization)"
            )
        if len(cp.regions) != len(regions):
            raise CheckpointError(
                f"checkpoint has {len(cp.regions)} regions, engine has "
                f"{len(regions)}"
            )
        validated = []
        for rs, region in zip(cp.regions, regions):
            if rs.kind != region.kind:
                raise CheckpointError(
                    f"region kind mismatch: checkpoint {rs.kind!r}, "
                    f"engine {region.kind!r} (same composition mode required)"
                )
            try:
                validated.append(region.validate_state(rs.state))
            except ValueError as exc:
                raise CheckpointError(str(exc)) from None
        names = set(store.names())
        if set(cp.buffers) != names:
            raise CheckpointError(
                "buffer restore failed: buffer snapshot does not match store "
                f"(missing {sorted(names - set(cp.buffers))}, "
                f"unknown {sorted(set(cp.buffers) - names)})"
            )
        for name, items in cp.buffers.items():
            cap = store.capacity(name)
            if cap is not None and len(items) > cap:
                raise CheckpointError(
                    f"buffer restore failed: buffer {name!r} cannot hold "
                    f"{len(items)} values (capacity {cap})"
                )
        return validated

    @staticmethod
    def _install_states(cp: Checkpoint, regions, validated) -> None:
        for region, rs, state in zip(regions, cp.regions, validated):
            region.state = state
            # int accepted for hand-built pre-cursor-table states.
            region.cursors = {} if isinstance(rs.rr, int) else dict(rs.rr)
            region.reseat()

    def _remap_boundary(self, vertex_map: dict[str, str],
                        sources: frozenset[str], sinks: frozenset[str],
                        initial_occupancy) -> None:
        """Re-key everything kept per boundary vertex across a
        re-parametrization (world stopped).  ``vertex_map`` names every
        *surviving* old vertex; one it does not name has departed, and
        what was recorded about it goes with it — a survivor renamed onto
        a departed vertex's name must not inherit that vertex's closure or
        dead letters.  Recorded peer failures are cleared: the departure
        *is* the recovery."""
        self.sources, self.sinks = sources, sinks
        self._closed_vertices = {
            vertex_map[v] for v in self._closed_vertices if v in vertex_map
        }
        self._vertex_errors = {vertex_map[v]: e for v, e
                               in self._vertex_errors.items() if v in vertex_map}
        self._peer_failures.clear()
        self._vertex_party = {}
        for party in self._parties.values():
            party.vertices = {
                vertex_map[v] for v in party.vertices if v in vertex_map
            }
            for v in party.vertices:
                self._vertex_party[v] = party
        self.dead.remap(vertex_map)
        if initial_occupancy is not None:
            # The re-instantiated connector's token baseline (captured by
            # the caller *before* buffer migration) replaces the old one.
            self._initial_occupancy = initial_occupancy
        self._party_gen += 1
        self._suspect = None
