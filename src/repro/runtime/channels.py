"""The *basic* Foster–Chandy model (paper §II, Figs. 1–2) — the baseline.

A :class:`Channel` connects exactly one outport to one inport through a
buffer; sends are non-blocking by default (the buffer is unbounded),
receives block until a message is available.  This is the model the paper
generalizes, kept here (a) as the baseline programming model for
comparisons and tests (Ex. 2 is implemented with it), and (b) as the
communication substrate of the *original* NPB variants (§V.C), which use
hand-written synchronization.

Fault tolerance mirrors the connector-port API so the two models satisfy
one contract (``tests/runtime/test_model_contract.py``):

* ``recv(timeout=...)`` raises :class:`~repro.util.errors.ProtocolTimeoutError`
  instead of blocking forever (``send`` accepts ``timeout=`` for symmetry;
  it only matters on a full *bounded* channel);
* ``try_send``/``try_recv`` are the non-blocking forms, ``try_recv``
  returning the normalized ``(completed, value)`` pair;
* ``close(error=...)``/``fail(error)`` close *with a cause*: a peer blocked
  on (or later attempting) the other end observes that error — e.g. the
  :class:`~repro.util.errors.PeerFailedError` supervision injects when the
  owning task dies — instead of a bare :class:`PortClosedError`;
* ``set_owner``/``release_owner`` record the owning task (accepted for
  API parity with connector ports; the basic model has no engine to
  register parties on, so there is no deadlock detection here).

A ``capacity`` bounds the buffer: a send against a full bounded channel
blocks until the receiver makes room (honouring ``timeout``), and
``try_send`` reports ``False`` instead.  If the receiving end closes
meanwhile, the parked send raises the close's cause (or
:class:`PortClosedError` when there is none).  That is the whole
overload story of the basic model — shedding and dead letters are
connector policies (:class:`~repro.runtime.overload.OverloadPolicy`,
DECISIONS row 26), not properties of a pipe.

Observability mirrors the connector model: pass ``metrics=`` (a
:class:`~repro.runtime.metrics.MetricsRegistry`) to :class:`Channel` /
:func:`channel` and the pipe emits the cross-model metric families
(:data:`~repro.runtime.metrics.CONTRACT_FAMILIES` — submissions,
completions, withdrawals, occupancy) under the channel's ``name``, which
doubles as both the ``connector`` and ``vertex`` label (a channel *is* its
single source/sink pair).  As on a connector, every submitted operation
ends completed or withdrawn (a timeout, an empty ``try_recv``, a send
refused by the receiver's close, a receive that meets the close), so
``submitted == completed + withdrawn`` holds at every instant.
"""

from __future__ import annotations

import itertools
import threading
import time
from collections import deque

from repro.util.errors import (
    PortClosedError,
    ProtocolTimeoutError,
    RuntimeProtocolError,
)

_channel_ids = itertools.count()


class _Closed:
    """Sentinel enqueued at close time, optionally carrying the cause."""

    __slots__ = ("error",)

    def __init__(self, error: Exception | None = None):
        self.error = error


class _Empty(Exception):
    """Internal: a non-blocking get found no message."""


class _Pipe:
    """The shared buffer between the two ends of one channel.

    A deque under a condition variable (the stdlib ``SimpleQueue`` cannot
    express a capacity bound).  ``capacity=None`` is the classic unbounded
    channel; with a capacity, a send against a full buffer waits for room.
    The close sentinel always bypasses the bound — closing must never
    block.
    """

    def __init__(self, capacity: int | None = None, metrics=None):
        if capacity is not None and capacity < 1:
            raise RuntimeProtocolError("channel capacity must be >= 1")
        self.capacity = capacity
        # ChannelMetrics hook bundle (repro.runtime.metrics) or None; every
        # hot-path use sits behind one `is not None` check, mutation is
        # serialized by this pipe's condition lock.
        self.metrics = metrics
        self._q: deque = deque()
        self._cond = threading.Condition()
        # Set when the receiving end closes: senders parked on a full
        # buffer must not wait for room that will never be made.
        self._reader_closed: _Closed | None = None

    def occupancy(self) -> int:
        """Messages currently buffered (close sentinels excluded) — what
        the sampled ``repro_buffer_occupancy`` gauge reads."""
        with self._cond:
            return sum(1 for v in self._q if not isinstance(v, _Closed))

    def _full(self) -> bool:
        return self.capacity is not None and len(self._q) >= self.capacity

    def put(self, value, vertex: str, timeout: float | None = None) -> None:
        with self._cond:
            mx = self.metrics
            if mx is not None:
                mx.op_submitted(True)
            if self._full():
                try:
                    self._wait_for_room(vertex, timeout)
                except Exception:
                    if mx is not None:
                        mx.op_withdrawn(True)
                    raise
            self._q.append(value)
            if mx is not None:
                mx.op_completed(True)
            self._cond.notify_all()

    def _wait_for_room(self, vertex: str, timeout: float | None) -> None:
        """Wait, under the condition, until the full buffer has room;
        raise the receiver's close cause or a timeout instead."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while self._full():
            if self._reader_closed is not None:
                if self._reader_closed.error is not None:
                    raise self._reader_closed.error
                raise PortClosedError(
                    f"channel from outport {vertex!r} closed by its receiver"
                )
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise ProtocolTimeoutError(vertex, timeout, kind="send")
            self._cond.wait(remaining)

    def put_sentinel(self, sentinel: _Closed) -> None:
        with self._cond:
            self._q.append(sentinel)
            self._cond.notify_all()

    def close_reader(self, sentinel: _Closed) -> None:
        with self._cond:
            self._reader_closed = sentinel
            self._cond.notify_all()

    def get(self, timeout: float | None = None):
        with self._cond:
            mx = self.metrics
            if mx is not None:
                mx.op_submitted(False)
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._q:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        if mx is not None:
                            mx.op_withdrawn(False)
                        raise _Empty
                self._cond.wait(remaining)
            value = self._q.popleft()
            if isinstance(value, _Closed):
                # Leave the sentinel for the next receiver too.
                self._q.appendleft(value)
                if mx is not None:
                    mx.op_withdrawn(False)
            elif mx is not None:
                mx.op_completed(False)
            self._cond.notify_all()
            return value

    def get_nowait(self):
        with self._cond:
            mx = self.metrics
            if mx is not None:
                mx.op_submitted(False)
            if not self._q:
                if mx is not None:
                    mx.op_withdrawn(False)
                raise _Empty
            value = self._q.popleft()
            if isinstance(value, _Closed):
                self._q.appendleft(value)
                if mx is not None:
                    mx.op_withdrawn(False)
            elif mx is not None:
                mx.op_completed(False)
            self._cond.notify_all()
            return value


class _ChannelPort:
    """Common state of the two channel ends."""

    def __init__(self, name: str = ""):
        self.name = name or f"ch{next(_channel_ids)}"
        self._queue: _Pipe | None = None
        self._closed = False
        self._error: Exception | None = None
        self._owner = None
        self._owner_name = ""

    def _raise_closed(self, doing: str):
        if self._error is not None:
            raise self._error
        raise PortClosedError(f"{doing} {self.name!r} closed")

    # -- ownership (API parity with connector ports) ------------------------

    def set_owner(self, key, name: str = "") -> None:
        """Record the owning task.  The basic model has no coordination
        engine, so this registers no party — it only lets supervision fail
        this port with a cause when the owner dies."""
        self._owner = key
        self._owner_name = name

    def release_owner(self) -> None:
        self._owner = None
        self._owner_name = ""

    def fail(self, error: Exception) -> None:
        """Close on behalf of a crashed owner: the peer end observes
        ``error`` (typically :class:`PeerFailedError`) instead of a bare
        :class:`PortClosedError`."""
        self.close(error=error)

    @property
    def closed(self) -> bool:
        return self._closed

    @property
    def connected(self) -> bool:
        return self._queue is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else ("bound" if self.connected else "unbound")
        return f"<{type(self).__name__} {self.name} ({state})>"


class ChannelOutport(_ChannelPort):
    """Sending end of a basic channel: on the classic unbounded channel
    ``send`` never blocks (§II); on a bounded one it waits for room."""

    def send(self, value, timeout: float | None = None) -> None:
        """Send ``value``.  ``timeout`` only matters against a full bounded
        buffer."""
        if self._closed:
            self._raise_closed("outport")
        if self._queue is None:
            raise PortClosedError(f"outport {self.name!r} not connected")
        self._queue.put(value, self.name, timeout)

    def try_send(self, value) -> bool:
        """Non-blocking send; ``False`` only when a bounded buffer is
        full."""
        if self._closed:
            self._raise_closed("outport")
        if self._queue is None:
            raise PortClosedError(f"outport {self.name!r} not connected")
        if self._queue._full():
            return False
        self.send(value)
        return True

    def close(self, error: Exception | None = None) -> None:
        if not self._closed:
            self._closed = True
            self._error = error
            if self._queue is not None:
                self._queue.put_sentinel(_Closed(error))


class ChannelInport(_ChannelPort):
    """Receiving end of a basic channel: ``recv`` blocks until a message
    becomes available."""

    def _check_open(self):
        if self._closed:
            self._raise_closed("inport")
        if self._queue is None:
            raise PortClosedError(f"inport {self.name!r} not connected")
        return self._queue

    def _arrived(self, value):
        if isinstance(value, _Closed):
            self._closed = True
            self._error = value.error
            if value.error is not None:
                raise value.error
            raise PortClosedError(f"channel to inport {self.name!r} closed")
        return value

    def recv(self, timeout: float | None = None):
        q = self._check_open()
        try:
            value = q.get(timeout=timeout)
        except _Empty:
            raise ProtocolTimeoutError(self.name, timeout, kind="recv") from None
        return self._arrived(value)

    def try_recv(self) -> tuple[bool, object]:
        """Non-blocking receive; returns the normalized ``(completed,
        value)`` pair — ``(False, None)`` when no message is buffered."""
        q = self._check_open()
        try:
            value = q.get_nowait()
        except _Empty:
            return False, None
        return True, self._arrived(value)

    def close(self, error: Exception | None = None) -> None:
        if not self._closed:
            self._closed = True
            self._error = error
            if self._queue is not None:
                self._queue.close_reader(_Closed(error))


class Channel:
    """A point-to-point channel (paper Fig. 1, ``Channel``) — unbounded by
    default; ``capacity`` bounds the buffer (a send against a full one
    blocks), and ``metrics`` (a :class:`~repro.runtime.metrics.MetricsRegistry`)
    opts into the observability model (``name`` is the metric label;
    auto-generated when omitted)."""

    def __init__(self, capacity: int | None = None, metrics=None, name: str = ""):
        self.capacity = capacity
        self.name = name or f"ch{next(_channel_ids)}"
        if metrics is not None:
            from repro.runtime.metrics import ChannelMetrics

            self._metrics = ChannelMetrics(metrics, self.name)
        else:
            self._metrics = None
        self._pipe: _Pipe | None = None

    def connect(self, out: ChannelOutport, inp: ChannelInport) -> None:
        if out._queue is not None or inp._queue is not None:
            raise PortClosedError("channel port already connected")
        self._pipe = _Pipe(self.capacity, metrics=self._metrics)
        if self._metrics is not None:
            self._metrics.attach_pipe(self._pipe)
        out._queue = self._pipe
        inp._queue = self._pipe


def channel(
    capacity: int | None = None, metrics=None, name: str = ""
) -> tuple[ChannelOutport, ChannelInport]:
    """Convenience: a connected (outport, inport) pair."""
    out, inp = ChannelOutport(), ChannelInport()
    Channel(capacity, metrics=metrics, name=name).connect(out, inp)
    return out, inp
