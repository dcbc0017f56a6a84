"""The multi-tenant coordinator service.

:class:`CoordinatorService` hosts many named
:class:`~repro.serve.session.FarmSession`\\ s — each an independent
connector, supervised worker group, and *its own* metrics registry, so one
tenant's counters never pollute another's conservation books.  The service
itself keeps a separate registry for the three ``repro_serve_*`` families
(admissions, restarts, and the sampled session-state gauge).

Admin operations (checkpoint, restart, quarantine, close) serialize on
the session's own :attr:`~repro.serve.session.FarmSession.admin` lock —
never globally, and the service adds no lock of its own.  ``submit`` takes
no admin lock at all; the session's own intake gate is the only
synchronization on the hot path.

With ``stall_after`` or ``auto_checkpoint`` set, one maintenance thread
tends every session.  Each tick it visits every RUNNING session whose
admin lock it can take without waiting (a busy lock is an admin operation
in flight, which counts as progress) and either commits a due periodic
snapshot through :meth:`CoordinatorService.durable_checkpoint` — giving
up after ``PARK_TIMEOUT`` on a session that cannot park — or runs
the progress-based stall detector, which quarantines a session whose
delivered count stops moving for ``stall_after`` seconds while it still
has a backlog (in-flight submits, pending operations, or buffered values).
Snapshots of different sessions run one after another, so a session's
period stretches once they take longer than ``auto_checkpoint`` together
(docs/DECISIONS.md row 22).
The detector is the service-level analogue of the task watchdog: it
catches a *wedged session*, not a wedged task.

With ``state_dir`` set, every session is **durable**
(:mod:`repro.runtime.durable`): admissions and deliveries are journaled
write-ahead, :meth:`durable_checkpoint` commits snapshot generations at
quiescent points, and a *cold* service calls :meth:`recover_sessions` to
rebuild every session found in the state directory — configuration from
the snapshot's metadata record, protocol state from the checkpoint, and
the exactly-once delivery book from snapshot + journal replay.  See
docs/DURABILITY.md.
"""

from __future__ import annotations

import threading
import time

from repro.runtime.durable import DurableStore, SessionDurability
from repro.runtime.errors import (
    ReproRuntimeError,
    RuntimeProtocolError,
    StallError,
)
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.overload import OverloadPolicy
from repro.serve.admission import AdmissionController, AdmissionError, TenantSpec
from repro.serve.session import ADMIN_TIMEOUT, FarmSession, SessionState

#: Bound on the parking of a periodic snapshot (ten worker receive ticks).
#: A session that cannot park in time — a submit wedged in ``send`` — is
#: skipped until its next period instead of holding up the other sessions.
PARK_TIMEOUT = 0.2


class CoordinatorService:
    """Host, admit, supervise, checkpoint, and restart named sessions.

    * ``admission`` — an :class:`AdmissionController`; the default admits
      any tenant under a permissive open-tenancy spec.
    * ``metrics`` — the *service* registry for the ``repro_serve_*``
      families (sessions each get their own registry).
    * ``stall_after`` — arms the maintenance thread's stall detector;
      ``stall_after=None`` leaves it off.  ``probe_interval`` is the
      thread's tick.
    * ``state_dir`` — root of the durable store; every session opened on
      this service becomes crash-consistent.  ``retention``/``fsync``
      forward to the store; ``auto_checkpoint`` (seconds) arms the
      maintenance thread's periodic snapshot of every durable session.

    Usable as a context manager: ``with CoordinatorService() as svc: ...``
    starts the maintenance thread (when armed) and closes every session
    on exit.
    """

    def __init__(
        self,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        stall_after: float | None = None,
        probe_interval: float = 0.05,
        state_dir=None,
        retention: int | None = None,
        fsync: bool = False,
        auto_checkpoint: float | None = None,
    ):
        self.durable: DurableStore | None = None
        if state_dir is not None:
            kwargs = {"fsync": fsync}
            if retention is not None:
                kwargs["retention"] = retention
            self.durable = DurableStore(state_dir, **kwargs)
        self.auto_checkpoint = auto_checkpoint
        self.admission = admission if admission is not None else (
            AdmissionController(default=TenantSpec("default", max_sessions=64))
        )
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.stall_after = stall_after
        self.probe_interval = probe_interval
        self._table_lock = threading.RLock()
        self._sessions: dict[str, FarmSession] = {}
        self._admissions = self.metrics.counter("repro_serve_admissions_total")
        self._restarts = self.metrics.counter("repro_serve_restarts_total")
        self.metrics.gauge("repro_serve_sessions").set_callback(
            self, self._sample_sessions
        )
        #: name -> (delivered count at last progress, monotonic timestamp)
        self._marks: dict[str, tuple[int, float]] = {}
        #: name -> monotonic time the next periodic snapshot is due
        self._due: dict[str, float] = {}
        self._maintainer: threading.Thread | None = None
        self._stop = threading.Event()

    # -- metrics -------------------------------------------------------------

    def _sample_sessions(self):
        with self._table_lock:
            rows = [(s.tenant, s.state.value) for s in self._sessions.values()]
        counts: dict[tuple[str, str], int] = {}
        for row in rows:
            counts[row] = counts.get(row, 0) + 1
        return counts.items()

    # -- the serving surface -------------------------------------------------

    def open_session(
        self,
        name: str,
        tenant: str = "default",
        *,
        workers: int | None = None,
        policy=None,
        restart_policy=None,
        fault_plan=None,
        service_time: float = 0.0,
        registry: MetricsRegistry | None = None,
        default_timeout: float = ADMIN_TIMEOUT,
    ) -> FarmSession:
        """Admit and open one session for ``tenant``.

        The tenant's :class:`TenantSpec` supplies the worker count and
        overload policy unless overridden per session.  Raises
        :class:`AdmissionError` (and counts a rejection) on unknown tenant
        or exhausted quota; raises :class:`RuntimeProtocolError` on a
        duplicate name."""
        with self._table_lock:
            if name in self._sessions:
                raise RuntimeProtocolError(
                    f"session {name!r} already exists"
                )
            open_count = sum(
                1 for s in self._sessions.values()
                if s.tenant == tenant and s.state is not SessionState.CLOSED
            )
            try:
                spec = self.admission.admit(tenant, open_count)
            except AdmissionError:
                self._admissions.labels(tenant, "rejected").inc()
                raise
            self._admissions.labels(tenant, "admitted").inc()
            durability = None
            if self.durable is not None:
                durability = SessionDurability(self.durable.session(name))
            session = FarmSession(
                name,
                tenant,
                workers=workers if workers is not None else spec.workers,
                policy=policy if policy is not None else spec.overload,
                registry=registry,
                restart_policy=restart_policy,
                fault_plan=fault_plan,
                service_time=service_time,
                default_timeout=default_timeout,
                durability=durability,
            )
            session.open()
            self._sessions[name] = session
            self.start()
            return session

    def recover_sessions(self) -> list[str]:
        """Cold-start recovery: rebuild and open every session with durable
        state on disk (a no-op without ``state_dir``).

        Each session's configuration — tenant, worker count, overload
        policy, service time — comes from the metadata record of its
        newest valid snapshot; the protocol state and exactly-once
        delivery book come from :meth:`FarmSession.open`'s recovery path.
        Returns the recovered session names (sorted).  Sessions already
        open under the same name are skipped (recovery is idempotent).
        Keys this code does not read are ignored: metadata written when a
        session could pick its engine backend and process count recovers
        under the default engine, which restores the same checkpoint bytes
        (docs/DECISIONS.md row 13)."""
        if self.durable is None:
            return []
        recovered = []
        for name in self.durable.sessions():
            with self._table_lock:
                if name in self._sessions:
                    continue
            meta = self.durable.session(name).peek_meta()
            if not meta:
                continue  # directory without a loadable snapshot
            policy = None
            if meta.get("policy"):
                policy = OverloadPolicy(**meta["policy"])
            self.open_session(
                name,
                meta.get("tenant", "default"),
                workers=meta.get("workers"),
                policy=policy,
                service_time=meta.get("service_time", 0.0),
                default_timeout=meta.get("default_timeout", ADMIN_TIMEOUT),
            )
            recovered.append(name)
        return sorted(recovered)

    def durable_checkpoint(self, name: str, timeout: float = ADMIN_TIMEOUT):
        """Commit one durable snapshot generation for ``name``; returns the
        checkpoint.  The periodic snapshot takes this same path."""
        return self.session(name).durable_checkpoint(timeout=timeout)

    def session(self, name: str) -> FarmSession:
        with self._table_lock:
            session = self._sessions.get(name)
        if session is None:
            raise RuntimeProtocolError(f"unknown session {name!r}")
        return session

    def submit(self, name: str, value, timeout: float | None = None) -> str:
        """Offer one value to a hosted session's intake (no admin lock —
        the session's own gate is the only hot-path synchronization)."""
        return self.session(name).submit(value, timeout=timeout)

    def rolling_restart(self, name: str, new_workers: int | None = None,
                        timeout: float = ADMIN_TIMEOUT):
        """Checkpoint/rebuild/restore one session under its admin lock."""
        cp = self.session(name).rolling_restart(new_workers, timeout=timeout)
        self._restarts.labels(name).inc()
        return cp

    def quarantine(self, name: str, cause: BaseException | None = None) -> None:
        self.session(name).quarantine(cause)

    def close_session(self, name: str,
                      drain_timeout: float = ADMIN_TIMEOUT) -> None:
        self.session(name).close(drain_timeout)

    def status(self) -> dict[str, dict]:
        """One row per session the service ever admitted (closed sessions
        stay in the table so their books remain auditable)."""
        with self._table_lock:
            items = list(self._sessions.items())
        return {
            name: {
                "tenant": s.tenant,
                "state": s.state.value,
                "workers": s.workers,
                "restarts": s.restarts,
                "delivered": len(s.delivered),
                "dead_letters": len(s.dead_letters()),
                "backlog": (
                    s.backlog() if s.state is SessionState.RUNNING else 0
                ),
            }
            for name, s in items
        }

    # -- the maintenance thread ----------------------------------------------

    def start(self) -> "CoordinatorService":
        """Start the maintenance thread — a no-op unless ``stall_after`` or
        ``auto_checkpoint`` is set, or when it already runs.
        :meth:`open_session` calls this too, so periodic snapshots need no
        explicit start."""
        with self._table_lock:
            if self._maintainer is not None or (
                self.stall_after is None and not self.auto_checkpoint
            ):
                return self
            self._stop.clear()
            self._maintainer = threading.Thread(
                target=self._maintain, name="serve-maintenance", daemon=True,
            )
            self._maintainer.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._maintainer is not None:
            self._maintainer.join(timeout=ADMIN_TIMEOUT)
            self._maintainer = None

    def _maintain(self) -> None:
        # Ticks start every probe_interval; a sweep that overran (snapshots
        # of many sessions) is followed by the next one at once.
        tick = time.monotonic()
        while not self._stop.wait(
            max(0.0, tick + self.probe_interval - time.monotonic())
        ):
            tick = time.monotonic()
            with self._table_lock:
                sessions = list(self._sessions.items())
            for name, session in sessions:
                if not session.admin.acquire(blocking=False):
                    self._marks.pop(name, None)  # an admin op is progress
                    continue
                try:
                    self._tend(name, session)
                finally:
                    session.admin.release()

    def _tend(self, name: str, session: FarmSession) -> None:
        """One tick for one session whose admin lock this thread holds."""
        now = time.monotonic()
        if session.state is not SessionState.RUNNING:
            self._marks.pop(name, None)
        elif self.auto_checkpoint and session.durability is not None and (
            self._due.setdefault(name, now + self.auto_checkpoint) <= now
        ):
            try:
                self.durable_checkpoint(name, timeout=PARK_TIMEOUT)
            except ReproRuntimeError:
                pass  # cannot park, or a disk failure: the next period retries
            self._due[name] = time.monotonic() + self.auto_checkpoint
        elif self.stall_after is not None:
            delivered = len(session.delivered)
            marked, since = self._marks.setdefault(name, (delivered, now))
            if delivered != marked or session.backlog() == 0:
                self._marks[name] = (delivered, now)
            elif now - since >= self.stall_after:
                session.quarantine(StallError(
                    name, now - since, "session made no progress with a "
                    "backlog; quarantined by the service stall detector"))

    # -- teardown ------------------------------------------------------------

    def close(self, drain_timeout: float = ADMIN_TIMEOUT) -> None:
        """Stop the maintenance thread and close every non-closed
        session."""
        self.stop()
        with self._table_lock:
            names = [
                n for n, s in self._sessions.items()
                if s.state is not SessionState.CLOSED
            ]
        for name in names:
            try:
                self.close_session(name, drain_timeout)
            except RuntimeProtocolError:
                pass

    def __enter__(self) -> "CoordinatorService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.close()
