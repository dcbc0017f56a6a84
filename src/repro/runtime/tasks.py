"""Task spawning helpers ("tasks as threads", paper Figs. 2/4).

:func:`spawn` starts a task on a thread and returns a :class:`TaskHandle`
whose :meth:`~TaskHandle.join` re-raises anything the task raised —
silently-dying tasks are the classic parallel-programming footgun.
:class:`TaskGroup` joins (and error-checks) a whole set of tasks, and is
what the examples and benchmarks use for their ``main`` definitions.

:class:`SupervisedTaskGroup` actually *defends* against the footgun: tasks
declare the ports they own, the group registers them as parties on the
connector engines behind those ports, and when a task dies with an
exception its ports are closed with a
:class:`~repro.util.errors.PeerFailedError` naming the dead task — so peers
blocked on the protocol fail fast instead of hanging until a wall-clock
timeout.

With a :class:`~repro.runtime.recovery.RestartPolicy`, supervision goes one
step further — from failing fast to *healing*: a crashed task is relaunched
(bounded retries, seeded exponential backoff) while its ports stay bound
and its party registration stays live, so peers simply block until the
replacement resumes the protocol.  Only when the restart budget is
exhausted does the crash become permanent — and then, with
``on_departure="reparametrize"``, the group removes the dead party from its
connectors at run time (:meth:`RuntimeConnector.leave`) instead of
poisoning the survivors.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Iterable

from repro.runtime.recovery import RestartPolicy
from repro.util.errors import (
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
    ReproError,
    RuntimeProtocolError,
    StallError,
)

#: Bound on joining spawned tasks when a ``with TaskGroup()`` body raised
#: (used when the group has no explicit ``join_timeout``).
_EXIT_JOIN_TIMEOUT = 10.0


class TaskHandle:
    """A running task: join it to obtain its result or its exception.

    ``on_exit`` (if given) is called with the handle, on the task's own
    thread, after the task finished — whether it returned or raised.  It is
    the supervision hook: by the time any joiner observes the thread dead,
    the callback has run.
    """

    def __init__(
        self,
        fn: Callable,
        args: tuple,
        kwargs: dict,
        name: str,
        on_exit: Callable[["TaskHandle"], None] | None = None,
    ):
        self.name = name
        self.result = None
        self.exception: BaseException | None = None

        def runner():
            try:
                self.result = fn(*args, **kwargs)
            except BaseException as exc:  # noqa: BLE001 - reported at join
                self.exception = exc
            finally:
                if on_exit is not None:
                    try:
                        on_exit(self)
                    except BaseException as exc:  # noqa: BLE001
                        if self.exception is None:
                            self.exception = exc

        self.thread = threading.Thread(target=runner, name=name, daemon=True)

    def start(self) -> "TaskHandle":
        self.thread.start()
        return self

    def join(self, timeout: float | None = None):
        """Wait for the task; re-raise its exception; return its result."""
        self.thread.join(timeout)
        if self.thread.is_alive():
            raise TimeoutError(f"task {self.name!r} did not finish in {timeout}s")
        if self.exception is not None:
            raise self.exception
        return self.result

    @property
    def alive(self) -> bool:
        return self.thread.is_alive()


def spawn(fn: Callable, *args, name: str = "", **kwargs) -> TaskHandle:
    """Start ``fn(*args, **kwargs)`` as a task thread."""
    return TaskHandle(fn, args, kwargs, name or fn.__name__).start()


class TaskGroup:
    """Spawn tasks and join them all, propagating the first failure.

    >>> with TaskGroup() as g:
    ...     g.spawn(producer, out)
    ...     g.spawn(consumer, inp)
    # exiting the block joins everything

    If the ``with`` body itself raises, the spawned threads are still joined
    (with a bounded timeout) so none is silently abandoned mid-protocol; the
    body's exception propagates, and anything joining raised is recorded in
    ``suppressed`` (and attached as exception notes where supported).
    """

    def __init__(self, join_timeout: float | None = None):
        self.handles: list[TaskHandle] = []
        self.join_timeout = join_timeout
        self.suppressed: list[BaseException] = []

    def spawn(self, fn: Callable, *args, name: str = "", **kwargs) -> TaskHandle:
        h = spawn(fn, *args, name=name, **kwargs)
        self.handles.append(h)
        return h

    def join_all(self) -> list:
        """Join every task; raise the first exception encountered (after
        attempting to join all, so no thread is left unaccounted)."""
        first_error: BaseException | None = None
        results = []
        for h in self.handles:
            try:
                results.append(h.join(self.join_timeout))
            except BaseException as exc:  # noqa: BLE001
                results.append(None)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def __enter__(self) -> "TaskGroup":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.join_all()
            return
        # The body raised: still join every spawned thread (bounded), so no
        # daemon thread is abandoned mid-protocol.  The body's exception
        # propagates; join failures are chained onto it as notes.
        timeout = self.join_timeout if self.join_timeout is not None else _EXIT_JOIN_TIMEOUT
        for h in self.handles:
            try:
                h.join(timeout)
            except BaseException as join_exc:  # noqa: BLE001
                self.suppressed.append(join_exc)
        if self.suppressed and hasattr(exc, "add_note"):
            for s in self.suppressed:
                exc.add_note(f"while handling this exception, joining a task failed: {s!r}")


class SupervisedTask:
    """One *logical* task under supervision.

    Unlike a :class:`TaskHandle` (one thread, one run), a supervised task's
    identity is stable across restarts: it is the party key registered on
    the connector engines, so a relaunched run inherits the dead run's
    ports, party registration, and place in deadlock detection.  The
    current run's handle is in ``handle``; ``restarts`` counts relaunches;
    ``join`` waits for the *terminal* outcome (success, permanent failure,
    or departure), not for any individual thread.
    """

    def __init__(self, group: "SupervisedTaskGroup", fn: Callable, args: tuple,
                 kwargs: dict, name: str, ports: tuple):
        self.group = group
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.name = name
        self.ports = ports
        self.restarts = 0
        self.handle: TaskHandle | None = None
        self.result = None
        self.exception: BaseException | None = None
        #: True when the task failed permanently but the failure was
        #: absorbed by re-parametrization (the protocol shrank instead of
        #: poisoning peers); ``join`` then returns instead of raising.
        self.departed = False
        #: True when the group forcibly removed this (stalled) task via
        #: :meth:`SupervisedTaskGroup.quarantine`; its eventual thread exit
        #: must not re-trigger crash handling.
        self.quarantined = False
        self._done = threading.Event()

    # -- TaskHandle-compatible surface --------------------------------------

    @property
    def thread(self) -> threading.Thread:
        return self.handle.thread

    @property
    def alive(self) -> bool:
        """True until the task reaches a terminal outcome — including
        while a crashed run waits out its restart backoff."""
        return not self._done.is_set()

    def join(self, timeout: float | None = None):
        """Wait for the terminal outcome; re-raise a permanent failure
        (unless it was absorbed as a departure); return the result."""
        if not self._done.wait(timeout):
            raise TimeoutError(f"task {self.name!r} did not finish in {timeout}s")
        if self.exception is not None and not self.departed:
            raise self.exception
        return self.result

    # -- lifecycle ----------------------------------------------------------

    def _launch(self) -> None:
        self.handle = TaskHandle(
            self.fn, self.args, self.kwargs, self.name, on_exit=self._run_exited
        )
        self.handle.start()

    def _run_exited(self, handle: TaskHandle) -> None:
        try:
            self.group._task_exited(self, handle)
        except BaseException as exc:  # noqa: BLE001 - supervision must not hang peers
            if self.exception is None:
                self.exception = handle.exception or exc
            for p in self.ports:
                try:
                    p.fail(PeerFailedError(self.name, self.exception))
                except Exception:  # noqa: BLE001
                    pass
            self._done.set()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self._done.is_set() else "running"
        extra = f", {self.restarts} restarts" if self.restarts else ""
        return f"<SupervisedTask {self.name} ({state}{extra})>"


class SupervisedTaskGroup(TaskGroup):
    """A TaskGroup with crash propagation through the coordination layer.

    Each spawned task declares the ports it owns (``ports=``).  The group:

    * registers the task as a *party* on every engine those ports are bound
      to — the engine learns its parties only this way, and a genuine
      all-parties-blocked state raises
      :class:`~repro.util.errors.DeadlockError` with a diagnostic dump;
    * on **crash**, consults ``restart_policy``: while the retry budget
      lasts, the task is relaunched after a seeded exponential backoff with
      its ports and party registration intact — peers keep blocking, no
      error propagates;
    * on **permanent failure** (no policy, budget exhausted, or a
      non-retryable exception): with ``on_departure="fail"`` (default) the
      dead task's ports are closed with a :class:`PeerFailedError` carrying
      the task name and exception, so peers fail fast; with
      ``on_departure="reparametrize"`` the group instead removes the dead
      party from its connectors at run time (``RuntimeConnector.leave``),
      letting the protocol degrade from ``n`` to ``n−1`` parties — the
      failure is recorded in ``self.departures`` and ``join`` does *not*
      re-raise it (falling back to failing the ports when the connector
      cannot re-parametrize);
    * on **normal exit**, unregisters the party, so peers waiting forever
      on an exited task are detected instead of hanging.

    Every task sharing a connector should be registered (spawned through
    supervision); an unregistered participant can make the registered set
    look complete and trigger a premature detection.

    >>> with SupervisedTaskGroup(restart_policy=RestartPolicy(max_retries=2)) as g:
    ...     g.spawn(producer, out, ports=[out])
    ...     g.spawn(consumer, inp, ports=[inp])
    """

    def __init__(
        self,
        join_timeout: float | None = None,
        restart_policy: RestartPolicy | None = None,
        on_departure: str = "fail",
        metrics=None,
    ):
        super().__init__(join_timeout)
        if on_departure not in ("fail", "reparametrize"):
            raise ValueError(
                f"on_departure must be 'fail' or 'reparametrize', "
                f"not {on_departure!r}"
            )
        self.restart_policy = restart_policy
        self.on_departure = on_departure
        self.departures: list = []  # DepartureReports, in failure order
        self._shutdown = False
        # Supervision metrics (repro.runtime.metrics.TaskMetrics) — crashes
        # by cause, restarts, departures, quarantines.  All cold-path.
        if metrics is not None:
            from repro.runtime.metrics import TaskMetrics

            self._metrics = TaskMetrics(metrics)
        else:
            self._metrics = None

    def spawn(
        self, fn: Callable, *args, ports: Iterable = (), name: str = "", **kwargs
    ) -> SupervisedTask:
        record = SupervisedTask(
            self, fn, args, kwargs, name or fn.__name__, tuple(ports)
        )
        for p in record.ports:
            p.set_owner(record, name=record.name)
        self.handles.append(record)
        record._launch()
        return record

    # -- exit hooks (run on the exiting task's own thread) -------------------

    def _task_exited(self, record: SupervisedTask, handle: TaskHandle) -> None:
        if record.quarantined:
            # The group already removed this task's party (watchdog
            # escalation); its late exit — usually a PortClosedError from
            # the vertex that left the signature — is the quarantine taking
            # effect, not a new crash.
            record._done.set()
            return
        exc = handle.exception
        if exc is not None and self._shutdown and isinstance(exc, PortClosedError):
            # Shutdown/drain closed the ports under the task: the closed
            # port is the clean end-of-stream signal, not a crash.
            exc = None
        if exc is None:
            record.result = handle.result
            for p in record.ports:
                p.release_owner()
            record._done.set()
            return
        if self._metrics is not None:
            self._metrics.crashed(record.name, exc)
        policy = self.restart_policy
        attempt = record.restarts + 1
        if (
            policy is not None
            and not self._shutdown
            and policy.should_restart(exc, attempt)
        ):
            record.restarts = attempt
            time.sleep(policy.delay(record.name, attempt))
            if not self._shutdown:
                if self._metrics is not None:
                    self._metrics.restarted(record.name)
                record._launch()
                return
        self._permanent_failure(record, exc)

    def _permanent_failure(self, record: SupervisedTask, exc: BaseException) -> None:
        record.exception = exc
        if self.on_departure == "reparametrize" and self._reparametrize(record, exc):
            record.departed = True
            if self._metrics is not None:
                self._metrics.departed(record.name)
        else:
            err = PeerFailedError(record.name, exc)
            for p in record.ports:
                p.fail(err)
        record._done.set()

    def _reparametrize(self, record: SupervisedTask, exc: BaseException) -> bool:
        """Remove the dead party from its connector(s); True when every
        connector accepted the departure (the failure is then absorbed)."""
        by_conn: dict[int, tuple] = {}
        for p in record.ports:
            conn = getattr(p, "_connector", None)
            if conn is None or not hasattr(conn, "leave"):
                return False
            by_conn.setdefault(id(conn), (conn, []))[1].append(p)
        if not by_conn:
            return False
        ok = True
        for conn, ports in by_conn.values():
            try:
                report = conn.leave(*ports, task=record.name, cause=exc)
            except ReproError:
                # This connector cannot shrink (graph-built, scalar party,
                # last array element, …): poison its ports the classic way.
                err = PeerFailedError(record.name, exc)
                for p in ports:
                    p.fail(err)
                ok = False
            else:
                self.departures.append(report)
        return ok

    # -- overload layer ------------------------------------------------------

    def quarantine(self, task, cause: BaseException | None = None) -> bool:
        """Forcibly remove a stalled or pathologically slow task's party
        from its connectors — the watchdog's escalation path.

        ``task`` is a :class:`SupervisedTask` or its name.  The flagged
        party's vertices are excluded via re-parametrization
        (:meth:`RuntimeConnector.leave`), so peers continue on the smaller
        protocol instead of stalling every round behind the laggard; the
        task itself sees :class:`~repro.util.errors.PortClosedError` on its
        next port operation and winds down.  Returns ``True`` when every
        connector accepted the departure (the stall is then absorbed —
        ``join`` does not raise); on ``False`` the ports were poisoned the
        classic way and ``join`` raises ``cause``.
        """
        record = self._find_task(task)
        if not record.alive:
            return False
        exc = cause if cause is not None else StallError(record.name, 0.0)
        record.quarantined = True
        record.exception = exc
        if self._reparametrize(record, exc):
            record.departed = True
            if self._metrics is not None:
                self._metrics.quarantined(record.name)
            record._done.set()
            return True
        record._done.set()
        return False

    def _find_task(self, task) -> SupervisedTask:
        if isinstance(task, SupervisedTask):
            return task
        for r in self.handles:
            if isinstance(r, SupervisedTask) and r.name == task:
                return r
        raise RuntimeProtocolError(f"no supervised task named {task!r}")

    def shutdown(self, drain_timeout: float | None = None) -> list:
        """Gracefully wind the group down: stop restarts, *drain* every
        connector behind the tasks' ports (refuse new sends, flush buffered
        values, close ports in dependency order), then join all tasks.

        A connector that cannot flush within ``drain_timeout`` is force-
        closed.  Tasks that exit with :class:`PortClosedError` after the
        shutdown began are treated as having finished cleanly (the closed
        port *is* the end-of-stream signal), so plain receive loops need no
        shutdown-specific handling.  Returns the tasks' results.
        """
        self._shutdown = True
        connectors: dict[int, object] = {}
        for record in self.handles:
            for p in getattr(record, "ports", ()):
                conn = getattr(p, "_connector", None)
                if conn is not None and hasattr(conn, "drain"):
                    connectors.setdefault(id(conn), conn)
        for conn in connectors.values():
            try:
                conn.drain(timeout=drain_timeout)
            except ProtocolTimeoutError:
                conn.close()
        return self.join_all()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            # Orchestration itself failed: stop restarting, and release
            # still-running tasks from their blocking operations so the
            # bounded join below is quick.
            self._shutdown = True
            err = PeerFailedError("<group body>", exc)
            for record in self.handles:
                if record.alive:
                    for p in record.ports:
                        p.fail(err)
        super().__exit__(exc_type, exc, tb)


def join_all(handles: Iterable[TaskHandle], timeout: float | None = None) -> list:
    """Join a collection of handles, re-raising the first failure."""
    group = TaskGroup(join_timeout=timeout)
    group.handles = list(handles)
    return group.join_all()
