"""Hosted protocol sessions — lifecycle state machine and the farm shape.

A *session* is the unit the coordinator service admits, supervises, and
restarts: one connector instance plus whatever tasks serve it, owned by a
tenant, moving through an explicit lifecycle::

    ADMITTED ──> RUNNING ──> DRAINING ──> CHECKPOINTED ──> RESTORING ──┐
                    ^  │         │                                     │
                    │  │         └──────────> (abort: back to RUNNING) │
                    │  └──> QUARANTINED ──> CLOSED                     │
                    └──────────────────────────────────────────────────┘

Every state except CLOSED can also transition to CLOSED.  Transitions are
validated under a lock; an illegal one raises the typed
:class:`SessionStateError` instead of silently corrupting the lifecycle.

Two concrete shapes:

* :class:`Session` — the generic core: a connector built by a caller-
  supplied factory, checkpointed/reopened/closed through the state machine.
  This is what the differential fuzzer's serve-hosted mode drives
  (:mod:`repro.fuzz.harness`, mode ``serve-jit``): hosting must add *no*
  observable protocol behaviour, which the trace-equivalence oracle checks.

* :class:`FarmSession` — the serving shape: one intake
  :class:`~repro.runtime.ports.Outport` feeding an ``EarlyAsyncRouter``
  farm of supervised worker receivers, with a tenant
  :class:`~repro.runtime.overload.OverloadPolicy` on the intake vertex and
  a **rolling restart** that checkpoints at a quiescent point, rebuilds a
  fresh engine (optionally at reduced arity via the
  :meth:`~repro.runtime.connector.RuntimeConnector.leave` path), restores,
  and resumes exactly-once: every value admitted before the restart is
  either delivered to a worker or captured in the dead-letter buffer —
  never lost, never duplicated.

The quiescence protocol behind :meth:`FarmSession.rolling_restart` is the
part worth reading twice.  ``checkpoint()`` demands no pending operations
and no blocked waiters, so the session (1) closes the intake gate and waits
for in-flight submits to reach zero — submits reserve an in-flight slot
*under the same lock* that re-checks the gate, so no submit can slip past a
closed gate; (2) parks the workers — each worker polls with a short receive
timeout, and a timed-out receive withdraws its pending operation (counted
in ``repro_ops_withdrawn_total``), so a parked farm converges to a
genuinely quiescent engine within one tick; (3) checkpoints, captures the
dead letters of the dying generation, rebuilds with the *same* metrics
registry (counters continue across generations, so the conservation law
``submitted == completed + shed + rejected + withdrawn`` holds cumulatively
over the session's whole life), restores, and lifts both gates.
"""

from __future__ import annotations

import threading
import time
from enum import Enum
from typing import Callable

from repro.connectors import library
from repro.runtime.errors import (
    CheckpointError,
    DurabilityError,
    OverloadError,
    PortClosedError,
    ProtocolTimeoutError,
    ReproRuntimeError,
    RuntimeProtocolError,
)
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.ports import Inport, Outport

#: Worker receive-poll tick (seconds).  Short enough that parking a farm
#: for a rolling restart converges quickly; long enough that the
#: timeout-withdraw background rate stays negligible.
RECV_TICK = 0.02

#: Default bound on lifecycle operations (parking, draining, restoring).
ADMIN_TIMEOUT = 10.0


class SessionState(str, Enum):
    """Lifecycle states (the string values double as metric labels)."""

    ADMITTED = "admitted"
    RUNNING = "running"
    DRAINING = "draining"
    CHECKPOINTED = "checkpointed"
    RESTORING = "restoring"
    QUARANTINED = "quarantined"
    CLOSED = "closed"


#: Legal transitions; everything non-CLOSED may also close.
_TRANSITIONS: dict[SessionState, frozenset[SessionState]] = {
    SessionState.ADMITTED: frozenset({SessionState.RUNNING}),
    SessionState.RUNNING: frozenset(
        {SessionState.DRAINING, SessionState.QUARANTINED}
    ),
    SessionState.DRAINING: frozenset(
        {SessionState.CHECKPOINTED, SessionState.RUNNING}
    ),
    SessionState.CHECKPOINTED: frozenset({SessionState.RESTORING}),
    SessionState.RESTORING: frozenset({SessionState.RUNNING}),
    SessionState.QUARANTINED: frozenset(),
    SessionState.CLOSED: frozenset(),
}


class SessionStateError(ReproRuntimeError):
    """An operation was attempted in a lifecycle state that forbids it."""

    def __init__(self, session: str, state: SessionState, wanted: SessionState):
        self.session = session
        self.state = state
        self.wanted = wanted
        super().__init__(
            f"session {session!r} is {state.value}; cannot transition to "
            f"{wanted.value}"
        )


class Session:
    """The generic hosted-session core: one connector behind the lifecycle
    state machine.

    ``factory`` builds (and connects) the connector; it is called once by
    :meth:`open` and again by every :meth:`reopen` — the rebuild half of a
    checkpoint/restore round-trip.  Subclasses (and the fuzz harness) own
    what the factory wires; the base class owns *when* it may be called.
    """

    def __init__(self, name: str, tenant: str = "default", *,
                 factory: Callable[[], object]):
        self.name = name
        self.tenant = tenant
        self._factory = factory
        self.state = SessionState.ADMITTED
        self.connector = None
        self.checkpoints: list = []  # taken checkpoints, in order
        self.restarts = 0            # completed reopen round-trips
        self.quarantine_cause: BaseException | None = None
        self._state_lock = threading.RLock()

    # -- state machine ------------------------------------------------------

    def _transition(self, to: SessionState) -> None:
        with self._state_lock:
            legal = _TRANSITIONS[self.state]
            if to is not SessionState.CLOSED and to not in legal:
                raise SessionStateError(self.name, self.state, to)
            if to is SessionState.CLOSED and self.state is SessionState.CLOSED:
                raise SessionStateError(self.name, self.state, to)
            self.state = to

    # -- lifecycle ----------------------------------------------------------

    def open(self) -> "Session":
        """ADMITTED → RUNNING: build the connector and start serving."""
        self._transition(SessionState.RUNNING)
        self.connector = self._factory()
        return self

    def checkpoint(self, name: str = ""):
        """RUNNING → DRAINING → CHECKPOINTED: snapshot at quiescence.

        On a :class:`CheckpointError` (the engine was not quiescent, or is
        draining toward close) the session transitions back to RUNNING and
        the typed error propagates — a failed snapshot never wedges the
        lifecycle."""
        with self._state_lock:
            self._transition(SessionState.DRAINING)
            try:
                cp = self.connector.checkpoint(name or self.name)
            except CheckpointError:
                self._transition(SessionState.RUNNING)
                raise
            self.checkpoints.append(cp)
            self._transition(SessionState.CHECKPOINTED)
            return cp

    def reopen(self, cp=None) -> "Session":
        """CHECKPOINTED → RESTORING → RUNNING: rebuild a fresh connector via
        the factory and restore ``cp`` (default: the latest checkpoint)."""
        with self._state_lock:
            self._transition(SessionState.RESTORING)
            if cp is None:
                cp = self.checkpoints[-1]
            _quiet_close(self.connector)
            self.connector = self._factory()
            self.connector.restore(cp)
            self.restarts += 1
            self._transition(SessionState.RUNNING)
            return self

    def quarantine(self, cause: BaseException | None = None) -> None:
        """RUNNING → QUARANTINED: the watchdog path — stop serving without
        a drain (the session is presumed stuck), record the cause."""
        with self._state_lock:
            self._transition(SessionState.QUARANTINED)
            self.quarantine_cause = cause
        _quiet_close(self.connector)

    def close(self) -> None:
        """Any live state → CLOSED (idempotent)."""
        with self._state_lock:
            if self.state is SessionState.CLOSED:
                return
            self.state = SessionState.CLOSED
        _quiet_close(self.connector)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name} ({self.state.value}, "
                f"tenant={self.tenant}, restarts={self.restarts})>")


class FarmSession(Session):
    """The serving shape: intake → ``EarlyAsyncRouter(workers)`` → a
    supervised worker pool of receive loops.

    * ``policy`` — the tenant's :class:`OverloadPolicy`, installed on the
      intake vertex (admission control at the *operation* level; the
      session-level quota lives in :mod:`repro.serve.admission`).
    * ``restart_policy`` — forwarded to the worker
      :class:`~repro.runtime.tasks.SupervisedTaskGroup`, so injected
      recoverable crashes heal in place.
    * ``fault_plan`` — a :class:`~repro.runtime.faults.FaultPlan` wrapping
      the session's ports (chaos is injected at the boundary, never inside
      the engine).  Port names are pinned (``<name>:intake``,
      ``<name>:w<k>``) so plans target sessions stably across rebuilds.
    * ``service_time`` — per-delivery worker sleep, modelling bounded
      capacity (what makes overload *real* in the load harness).
    * ``durability`` — a :class:`~repro.runtime.durable.SessionDurability`
      making the session crash-consistent (docs/DURABILITY.md): every
      admission intent and acknowledged delivery is journaled write-ahead,
      :meth:`durable_checkpoint` commits snapshot generations at the same
      gate-and-park quiescent points the rolling restart uses, and
      :meth:`open` transparently performs cold-start recovery when the
      state directory holds a previous incarnation's state.
    * ``auto_checkpoint`` — seconds between periodic durable checkpoints
      (a background thread; needs ``durability``).  A tick that loses the
      quiescence race (or hits a transient disk failure) is skipped, not
      fatal — the journal still bounds the loss window at zero for
      acknowledged work.

    Delivered values accumulate in :attr:`delivered` (order of delivery);
    dead letters survive generation swaps via :meth:`dead_letters`.
    """

    def __init__(
        self,
        name: str,
        tenant: str = "default",
        *,
        workers: int = 2,
        policy=None,
        registry: MetricsRegistry | None = None,
        restart_policy=None,
        fault_plan=None,
        service_time: float = 0.0,
        default_timeout: float = ADMIN_TIMEOUT,
        durability=None,
        auto_checkpoint: float | None = None,
    ):
        super().__init__(name, tenant, factory=self._build)
        if workers < 1:
            raise RuntimeProtocolError(
                f"session {name!r} needs at least one worker"
            )
        self.registry = registry if registry is not None else MetricsRegistry()
        self.workers = workers
        self.policy = policy
        self.restart_policy = restart_policy
        self.fault_plan = fault_plan
        self.service_time = service_time
        self.default_timeout = default_timeout
        self.durability = durability
        self.auto_checkpoint = auto_checkpoint
        self._auto_thread: threading.Thread | None = None
        self._auto_stop = threading.Event()

        self.delivered: list = []
        self._delivered_lock = threading.Lock()
        self._dead: list = []  # dead letters captured from closed generations
        #: Values dropped by a shrinking restart's departure (the departed
        #: worker's in-flight buffers) — kept so the exactly-once audit is
        #: ``submitted-ok == delivered + dead_letters + dropped``.
        self.dropped: list = []

        self._intake = None
        self._worker_ins: list = []
        self._group = None
        self._closing = False
        #: Set while workers may receive; cleared to park the farm.
        self._gate = threading.Event()
        #: Per-worker "I am parked" flags, indexed by rank.
        self._idle: list[threading.Event] = []
        #: Set while submits are admitted; cleared to stop the intake.
        self._intake_open = threading.Event()
        self._inflight = 0
        self._inflight_lock = threading.Lock()

    # -- construction (called by the Session lifecycle) ---------------------

    def _build(self):
        conn = library.connector(
            "EarlyAsyncRouter",
            self.workers,
            use_partitioning=True,
            overload=self.policy,
            default_timeout=self.default_timeout,
            metrics=self.registry,
        )
        out = Outport(f"{self.name}:intake")
        ins = [Inport(f"{self.name}:w{k}") for k in range(self.workers)]
        conn.connect([out], ins)
        if self.fault_plan is not None:
            out = self.fault_plan.wrap(out)
            ins = [self.fault_plan.wrap(p) for p in ins]
        self._intake = out
        self._worker_ins = ins
        return conn

    def _durable_meta(self) -> dict:
        """The session configuration a cold service needs to rebuild this
        session from its snapshot alone (``recover_sessions``)."""
        policy = None
        if self.policy is not None:
            policy = {
                "kind": self.policy.kind,
                "max_pending": self.policy.max_pending,
                "dead_letter_capacity": self.policy.dead_letter_capacity,
            }
        return {
            "tenant": self.tenant,
            "workers": self.workers,
            "service_time": self.service_time,
            "default_timeout": self.default_timeout,
            "policy": policy,
        }

    def open(self) -> "FarmSession":
        recovery = None
        if self.durability is not None:
            self.durability.bind(self.registry)
            recovery = self.durability.recover()
        super().open()
        resubmits: list = []
        if recovery is not None:
            # Cold start: reset the fresh engine to the snapshot state and
            # replay the acknowledged book into the visible delivery log.
            self.connector.restore(recovery.checkpoint)
            with self._delivered_lock:
                self.delivered.extend(self.durability.delivered_values())
        if self.durability is not None:
            # Commit a fresh generation *before* serving (and before the
            # re-injections below), so a second crash replays against a
            # snapshot that already carries the remaining suppress/resubmit
            # state — recovery is idempotent under repeated crashes.
            self.durability.commit(
                self.connector.checkpoint(self.name), self._durable_meta()
            )
            resubmits = self.durability.pop_resubmits()
        from repro.runtime.tasks import SupervisedTaskGroup

        self._group = SupervisedTaskGroup(restart_policy=self.restart_policy,
                                          metrics=self.registry)
        self._idle = [threading.Event() for _ in range(self.workers)]
        for rank in range(self.workers):
            # ports=() on purpose: the session manages drain/close itself,
            # so supervision's only job here is crash healing.
            self._group.spawn(self._worker, rank,
                              name=f"{self.name}:worker{rank}")
        self._gate.set()
        self._intake_open.set()
        for value in resubmits:
            # Admitted before the crash but absent from both the restored
            # engine and the delivery book: re-offer through the raw intake.
            # Deliberately *not* re-journaled — the committed snapshot above
            # already carries these in its resubmit set, so a crash here
            # just re-derives the same re-injections.
            self._intake.send(value, timeout=self.default_timeout)
        if self.auto_checkpoint and self.durability is not None:
            self._auto_stop.clear()
            self._auto_thread = threading.Thread(
                target=self._auto_checkpoint_loop,
                name=f"{self.name}:auto-checkpoint", daemon=True,
            )
            self._auto_thread.start()
        return self

    def _auto_checkpoint_loop(self) -> None:
        while not self._auto_stop.wait(self.auto_checkpoint):
            if self._closing:
                return
            try:
                self.durable_checkpoint()
            except ReproRuntimeError:
                # Lost the quiescence race (admin op in flight, close under
                # way) or a transient durability failure: skip this tick.
                continue

    # -- the worker pool ----------------------------------------------------

    def _worker(self, rank: int) -> None:
        while True:
            if self._closing:
                return
            if not self._gate.is_set():
                if rank >= self.workers:
                    return  # shrunk away by a reduced-arity restart
                self._idle[rank].set()
                self._gate.wait(timeout=RECV_TICK)
                if self._gate.is_set():
                    self._idle[rank].clear()
                continue
            if rank >= self.workers:
                return
            try:
                value = self._worker_ins[rank].recv(timeout=RECV_TICK)
            except ProtocolTimeoutError:
                continue
            except PortClosedError:
                if self._closing:
                    return
                time.sleep(RECV_TICK)  # generation swap in progress
                continue
            if self.durability is not None \
                    and not self.durability.on_delivered(value):
                # A suppressed re-emission: this value's delivery was
                # acknowledged before the crash, the restored engine just
                # replayed it.  Exactly-once means it must not surface twice.
                continue
            with self._delivered_lock:
                self.delivered.append(value)
            if self.service_time:
                time.sleep(self.service_time)

    # -- the serving surface ------------------------------------------------

    def submit(self, value, timeout: float | None = None) -> str:
        """Offer one value to the session's intake.

        Returns ``"ok"`` (completed or shed per the tenant policy — the
        engine sheds transparently), ``"rejected"`` (``fail_fast`` policy at
        its bound), or ``"timeout"`` (blocking policy and the bound
        expired; the operation was withdrawn).  Raises
        :class:`SessionStateError` when the session is not serving and the
        intake does not reopen within the timeout (e.g. a rolling restart
        in progress resolves within ``ADMIN_TIMEOUT``)."""
        deadline = time.monotonic() + (
            timeout if timeout is not None else self.default_timeout
        )
        while True:
            with self._inflight_lock:
                if self._intake_open.is_set():
                    self._inflight += 1
                    break
            if self._closing or self.state in (
                SessionState.CLOSED, SessionState.QUARANTINED
            ):
                raise SessionStateError(
                    self.name, self.state, SessionState.RUNNING
                )
            if time.monotonic() >= deadline:
                raise SessionStateError(
                    self.name, self.state, SessionState.RUNNING
                )
            self._intake_open.wait(timeout=RECV_TICK)
        try:
            # Write-ahead: the admission intent hits the journal before the
            # engine sees the value, so an acknowledged "ok" always has a
            # durable record.  A rejected/timed-out offer never entered
            # protocol state, so its intent is compensated with an abort.
            seq = None
            if self.durability is not None:
                seq = self.durability.on_submit(value)
            try:
                self._intake.send(value, timeout=timeout)
                return "ok"
            except OverloadError:
                if seq is not None:
                    self.durability.on_abort(seq, value)
                return "rejected"
            except ProtocolTimeoutError:
                if seq is not None:
                    self.durability.on_abort(seq, value)
                return "timeout"
        finally:
            with self._inflight_lock:
                self._inflight -= 1

    def backlog(self) -> int:
        """Work admitted but not yet delivered: in-flight submits, pending
        *send* operations, and buffered values.  Pending receives are
        deliberately excluded — an idle farm always has its workers' poll
        receives queued; they are capacity, not work.  The service's stall
        detector quarantines a RUNNING session whose delivered count stops
        moving while this stays positive."""
        with self._inflight_lock:
            total = self._inflight
        conn = self.connector
        if conn is not None and conn.engine is not None and not conn.engine._closed:
            try:
                total += sum(
                    depth for _, kind, depth in conn.engine.pending_depths()
                    if kind == "send"
                )
                total += conn.engine.buffered_total()
            except ReproRuntimeError:
                pass
        return total

    def dead_letters(self) -> tuple:
        """Every dead letter the session ever captured — closed generations
        plus the live one (restores do not carry dead letters; the session
        snapshots them at each generation swap)."""
        live = ()
        conn = self.connector
        if conn is not None and conn.engine is not None and not conn.engine._closed:
            try:
                live = conn.dead_letters()
            except ReproRuntimeError:
                live = ()
        return tuple(self._dead) + tuple(live)

    # -- quiescence plumbing -------------------------------------------------

    def _pause_intake(self, deadline: float) -> None:
        self._intake_open.clear()
        while True:
            with self._inflight_lock:
                if self._inflight == 0:
                    return
            if time.monotonic() >= deadline:
                raise ProtocolTimeoutError(self.name, ADMIN_TIMEOUT,
                                           kind="intake-pause")
            time.sleep(RECV_TICK / 4)

    def _park_workers(self, deadline: float) -> None:
        self._gate.clear()
        for flag in self._idle[: self.workers]:
            if not flag.wait(timeout=max(0.0, deadline - time.monotonic())):
                raise ProtocolTimeoutError(self.name, ADMIN_TIMEOUT,
                                           kind="worker-park")

    def _resume(self) -> None:
        self._gate.set()
        self._intake_open.set()

    # -- durable checkpoint --------------------------------------------------

    def durable_checkpoint(self, timeout: float = ADMIN_TIMEOUT):
        """Commit one durable snapshot generation at a quiescent point.

        Same gate-and-park protocol as :meth:`rolling_restart`, but the
        engine survives: pause the intake, park the workers, checkpoint,
        **commit while still parked** (committing after resume would let an
        interleaved delivery advance the journal past the checkpoint's
        engine state — the snapshot's book must be consistent with its
        checkpoint), then resume.  A :class:`DurabilityError` from the
        commit is re-raised *after* the session resumes serving — a full
        disk degrades durability, it does not wedge the farm.

        Returns the committed checkpoint."""
        if self.durability is None:
            raise RuntimeProtocolError(
                f"session {self.name!r} has no durability "
                "(open the service with --state-dir)"
            )
        deadline = time.monotonic() + timeout
        self._transition(SessionState.DRAINING)
        commit_error: DurabilityError | None = None
        try:
            self._pause_intake(deadline)
            self._park_workers(deadline)
            cp = self.connector.checkpoint(self.name)
            try:
                self.durability.commit(cp, self._durable_meta())
            except DurabilityError as exc:
                commit_error = exc
        except BaseException:
            self._transition(SessionState.RUNNING)
            self._resume()
            raise
        self.checkpoints.append(cp)
        self._transition(SessionState.CHECKPOINTED)
        self._transition(SessionState.RESTORING)
        self._transition(SessionState.RUNNING)
        self._resume()
        if commit_error is not None:
            raise commit_error
        return cp

    # -- rolling restart ----------------------------------------------------

    def rolling_restart(self, new_workers: int | None = None,
                        timeout: float = ADMIN_TIMEOUT):
        """Checkpoint at a quiescent point, rebuild a fresh engine, restore,
        resume — without losing or duplicating a single admitted value.

        ``new_workers`` (< current) shrinks the farm on the way through:
        the surplus workers' inports *leave* the protocol (the PR-2
        re-parametrization path) before the snapshot, so the checkpoint is
        taken at the reduced arity and restores into the smaller rebuild.
        Buffered values migrate across the shrink exactly as ``leave``
        specifies (survivors shift; the departed worker's in-flight values
        are dropped-and-reported — the session records them in
        :attr:`dropped`, so the exactly-once audit becomes
        ``delivered + dead_letters + dropped``).

        Returns the checkpoint that made the round-trip."""
        if new_workers is not None and (
            new_workers < 1 or new_workers > self.workers
        ):
            raise RuntimeProtocolError(
                f"session {self.name!r}: cannot restart {self.workers} "
                f"workers into {new_workers}"
            )
        deadline = time.monotonic() + timeout
        self._transition(SessionState.DRAINING)
        try:
            self._pause_intake(deadline)
            self._park_workers(deadline)
            if new_workers is not None and new_workers < self.workers:
                surplus = self._worker_ins[new_workers:]
                report = self.connector.leave(
                    *surplus, task=f"{self.name}:shrink"
                )
                self.workers = new_workers
                for contents in report.dropped_buffers.values():
                    self.dropped.extend(contents)
            cp = self.connector.checkpoint(self.name)
            if self.durability is not None:
                # Same rule as durable_checkpoint: commit while parked so
                # the snapshot's delivery book matches the engine state the
                # restore below will resurrect.
                self.durability.commit(cp, self._durable_meta())
        except BaseException:
            self._transition(SessionState.RUNNING)
            self._resume()
            raise
        self.checkpoints.append(cp)
        self._transition(SessionState.CHECKPOINTED)
        self._transition(SessionState.RESTORING)
        old = self.connector
        self._dead.extend(old.dead_letters())
        _quiet_close(old)
        self.connector = self._build()
        self.connector.restore(cp)
        self.restarts += 1
        self._transition(SessionState.RUNNING)
        self._resume()
        return cp

    # -- teardown ------------------------------------------------------------

    def quarantine(self, cause: BaseException | None = None) -> None:
        with self._state_lock:
            self._transition(SessionState.QUARANTINED)
            self.quarantine_cause = cause
        self._shutdown(drain=False)

    def close(self, drain_timeout: float = ADMIN_TIMEOUT) -> None:
        with self._state_lock:
            if self.state is SessionState.CLOSED:
                return
            was_quarantined = self.state is SessionState.QUARANTINED
            self.state = SessionState.CLOSED
        if not was_quarantined:
            self._shutdown(drain=True, drain_timeout=drain_timeout)

    def _shutdown(self, drain: bool, drain_timeout: float = ADMIN_TIMEOUT):
        self._auto_stop.set()
        if self._auto_thread is not None:
            self._auto_thread.join(timeout=drain_timeout)
            self._auto_thread = None
        self._intake_open.clear()
        deadline = time.monotonic() + drain_timeout
        try:
            self._pause_intake(deadline)
        except ProtocolTimeoutError:
            pass
        self._gate.set()  # workers must keep consuming through the drain
        conn = self.connector
        if conn is not None:
            if drain:
                self._dead.extend(conn.dead_letters())
                try:
                    conn.drain(timeout=drain_timeout)
                except (ProtocolTimeoutError, RuntimeProtocolError):
                    _quiet_close(conn)
            else:
                self._dead.extend(conn.dead_letters())
                _quiet_close(conn)
        self._closing = True
        if self._group is not None:
            self._group._shutdown = True  # stop restarts during teardown
            for record in self._group.handles:
                try:
                    record.join(drain_timeout)
                except (ReproRuntimeError, TimeoutError):
                    pass
        if self.durability is not None:
            self.durability.close()


def _quiet_close(conn) -> None:
    if conn is None:
        return
    try:
        conn.close()
    except Exception:  # noqa: BLE001 - teardown must not mask the caller
        pass
