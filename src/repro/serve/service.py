"""The multi-tenant coordinator service.

:class:`CoordinatorService` hosts many named
:class:`~repro.serve.session.FarmSession`\\ s — each an independent
connector, supervised worker group, and *its own* metrics registry, so one
tenant's counters never pollute another's conservation books.  The service
itself keeps a separate registry for the three ``repro_serve_*`` families
(admissions, restarts, and the sampled session-state gauge).

Sessions are **sharded across a worker pool keyed by the vertex→region
routing table**: a session's shard is a stable digest of its name plus the
``(vertex, region)`` assignment its engine's partitioner produced, so
sessions whose protocols partition alike land on the same shard and
admin operations (restart, quarantine, close) serialize per shard — never
globally.  ``submit`` takes no shard lock at all; the session's own intake
gate is the only synchronization on the hot path.

With ``stall_after`` set, :meth:`start` runs one maintenance thread per
shard: a progress-based stall detector that quarantines any RUNNING
session whose delivered count stops moving for ``stall_after`` seconds
while it still has a backlog (in-flight submits, pending operations, or
buffered values).  This is the service-level analogue of the task
watchdog: it catches a *wedged session*, not a wedged task.

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
import zlib

from repro.runtime.durable import DurableStore, SessionDurability
from repro.runtime.errors import RuntimeProtocolError, StallError
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.overload import OverloadPolicy
from repro.serve.admission import AdmissionController, AdmissionError, TenantSpec
from repro.serve.session import ADMIN_TIMEOUT, FarmSession, SessionState


class _Shard:
    """One shard of the session table: an admin lock, its members, and the
    progress marks its maintenance thread probes."""

    __slots__ = ("index", "lock", "sessions", "marks")

    def __init__(self, index: int):
        self.index = index
        self.lock = threading.RLock()
        self.sessions: dict[str, FarmSession] = {}
        #: name -> (delivered count at last progress, monotonic timestamp)
        self.marks: dict[str, tuple[int, float]] = {}


class CoordinatorService:
    """Host, admit, shard, supervise, and restart named sessions.

    * ``admission`` — an :class:`AdmissionController`; the default admits
      any tenant under a permissive open-tenancy spec.
    * ``metrics`` — the *service* registry for the ``repro_serve_*``
      families (sessions each get their own registry).
    * ``shards`` — size of the admin worker pool.
    * ``stall_after`` / ``probe_interval`` — arm the per-shard stall
      detector (see :meth:`start`); ``stall_after=None`` leaves it off.
    * ``state_dir`` — root of the durable store; every session opened on
      this service becomes crash-consistent.  ``retention``/``fsync``
      forward to the store; ``auto_checkpoint`` (seconds) arms each
      session's periodic snapshot thread.

    Usable as a context manager: ``with CoordinatorService() as svc: ...``
    starts the maintenance threads (when armed) and closes every session
    on exit.
    """

    def __init__(
        self,
        admission: AdmissionController | None = None,
        metrics: MetricsRegistry | None = None,
        *,
        shards: int = 4,
        stall_after: float | None = None,
        probe_interval: float = 0.05,
        state_dir=None,
        retention: int | None = None,
        fsync: bool = False,
        auto_checkpoint: float | None = None,
    ):
        if shards < 1:
            raise RuntimeProtocolError("service needs at least one shard")
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
        self._shards = [_Shard(i) for i in range(shards)]
        self._table_lock = threading.RLock()
        self._sessions: dict[str, FarmSession] = {}
        self._shard_of_name: dict[str, _Shard] = {}
        self._admissions = self.metrics.counter("repro_serve_admissions_total")
        self._restarts = self.metrics.counter("repro_serve_restarts_total")
        self.metrics.gauge("repro_serve_sessions").set_callback(
            self, self._sample_sessions
        )
        self._probes: list[threading.Thread] = []
        self._stop = threading.Event()

    # -- sharding ------------------------------------------------------------

    def _route_signature(self, session: FarmSession) -> tuple:
        """The engine's vertex→region assignment as a hashable, stable
        tuple (region identity by position in ``engine.regions``)."""
        engine = session.connector.engine
        index = {id(region): i for i, region in enumerate(engine.regions)}
        return tuple(sorted(
            (vertex, index[id(region)])
            for vertex, region in engine._route.items()
        ))

    def _shard_for(self, session: FarmSession) -> _Shard:
        key = repr((session.name, self._route_signature(session)))
        digest = zlib.crc32(key.encode("utf-8"))
        return self._shards[digest % len(self._shards)]

    def _lookup(self, name: str) -> tuple[FarmSession, _Shard]:
        with self._table_lock:
            session = self._sessions.get(name)
            if session is None:
                raise RuntimeProtocolError(f"unknown session {name!r}")
            return session, self._shard_of_name[name]

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
                auto_checkpoint=self.auto_checkpoint,
            )
            session.open()
            shard = self._shard_for(session)
            self._sessions[name] = session
            self._shard_of_name[name] = shard
            with shard.lock:
                shard.sessions[name] = session
                shard.marks[name] = (0, time.monotonic())
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
        """Commit one durable snapshot generation for ``name`` under its
        shard's admin lock; returns the checkpoint."""
        session, shard = self._lookup(name)
        with shard.lock:
            cp = session.durable_checkpoint(timeout=timeout)
            shard.marks[name] = (len(session.delivered), time.monotonic())
        return cp

    def session(self, name: str) -> FarmSession:
        return self._lookup(name)[0]

    def submit(self, name: str, value, timeout: float | None = None) -> str:
        """Offer one value to a hosted session's intake (no shard lock —
        the session's own gate is the only hot-path synchronization)."""
        session, _ = self._lookup(name)
        return session.submit(value, timeout=timeout)

    def rolling_restart(self, name: str, new_workers: int | None = None,
                        timeout: float = ADMIN_TIMEOUT):
        """Checkpoint/rebuild/restore one session under its shard's admin
        lock; re-shards afterwards (a reduced arity changes the routing
        table, which keys the shard)."""
        session, shard = self._lookup(name)
        with shard.lock:
            cp = session.rolling_restart(new_workers, timeout=timeout)
            self._restarts.labels(name).inc()
            shard.marks[name] = (len(session.delivered), time.monotonic())
        self._reshard(name, session, shard)
        return cp

    def _reshard(self, name: str, session: FarmSession, old: _Shard) -> None:
        new = self._shard_for(session)
        if new is old:
            return
        with self._table_lock:
            first, second = sorted((old, new), key=lambda s: s.index)
            with first.lock, second.lock:
                mark = old.marks.pop(name, (len(session.delivered),
                                            time.monotonic()))
                old.sessions.pop(name, None)
                new.sessions[name] = session
                new.marks[name] = mark
                self._shard_of_name[name] = new

    def quarantine(self, name: str, cause: BaseException | None = None) -> None:
        session, shard = self._lookup(name)
        with shard.lock:
            session.quarantine(cause)
            shard.marks.pop(name, None)

    def close_session(self, name: str,
                      drain_timeout: float = ADMIN_TIMEOUT) -> None:
        session, shard = self._lookup(name)
        with shard.lock:
            session.close(drain_timeout)
            shard.sessions.pop(name, None)
            shard.marks.pop(name, None)

    def status(self) -> dict[str, dict]:
        """One row per session the service ever admitted (closed sessions
        stay in the table so their books remain auditable)."""
        with self._table_lock:
            items = list(self._sessions.items())
            shards = dict(self._shard_of_name)
        return {
            name: {
                "tenant": s.tenant,
                "state": s.state.value,
                "shard": shards[name].index,
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

    # -- the maintenance pool ------------------------------------------------

    def start(self) -> "CoordinatorService":
        """Start one maintenance thread per shard (no-op unless
        ``stall_after`` is set)."""
        if self.stall_after is None or self._probes:
            return self
        self._stop.clear()
        for shard in self._shards:
            thread = threading.Thread(
                target=self._probe_loop, args=(shard,),
                name=f"serve-shard{shard.index}", daemon=True,
            )
            thread.start()
            self._probes.append(thread)
        return self

    def stop(self) -> None:
        self._stop.set()
        for thread in self._probes:
            thread.join(timeout=ADMIN_TIMEOUT)
        self._probes.clear()

    def _probe_loop(self, shard: _Shard) -> None:
        while not self._stop.wait(self.probe_interval):
            with shard.lock:
                for name, session in list(shard.sessions.items()):
                    self._probe_one(shard, name, session)

    def _probe_one(self, shard: _Shard, name: str,
                   session: FarmSession) -> None:
        if session.state is not SessionState.RUNNING:
            # lifecycle operations in flight are progress, not a stall
            shard.marks[name] = (len(session.delivered), time.monotonic())
            return
        delivered = len(session.delivered)
        marked, since = shard.marks.get(name, (delivered, time.monotonic()))
        now = time.monotonic()
        if delivered != marked or session.backlog() == 0:
            shard.marks[name] = (delivered, now)
            return
        if now - since >= self.stall_after:
            session.quarantine(StallError(name, now - since,
                                          "session made no progress with a "
                                          "backlog; quarantined by the "
                                          "service stall detector"))
            shard.sessions.pop(name, None)
            shard.marks.pop(name, None)

    # -- teardown ------------------------------------------------------------

    def close(self, drain_timeout: float = ADMIN_TIMEOUT) -> None:
        """Stop the maintenance pool and close every non-closed session."""
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
