"""Multiprocess region execution — ``concurrency="workers"`` (docs/PARALLEL.md).

The ``"regions"`` engine gave each independent region its own lock so
region drains overlap across OS threads — but under CPython every drain
still serializes on the GIL, so the Fig. 13 gap between the reo runtime
and the hand-threaded NPB originals is pure protocol-interpretation time
that never uses a second core.  This module places region drain loops in
separate **OS processes**:

* Regions are partitioned round-robin into ``workers`` groups.  Each group
  runs a full :class:`~repro.runtime.engine.CoordinatorEngine`
  (``concurrency="regions"``, compiled tier re-emitted in-process from the
  same automata — step functions are *rebuilt* in the worker, never
  pickled) inside a forked child, so all single-process engine semantics
  (firing order, fairness cursors, spill chasing) are inherited verbatim.
* Port buffers visible to more than one group live in
  ``multiprocessing.shared_memory`` (:class:`ShmFifo`): the worker-local
  :class:`~repro.runtime.buffers.BufferStore` adopts the shared segment in
  place of its deque, so both the interpretive engine and the compiled
  step closures operate on it unchanged.  Group-local buffers stay plain
  deques.
* Each worker is coupled to the coordinator process by a pair of lock-free
  SPSC byte rings (:class:`ShmRing`) — requests down, an *ordered* stream
  of completions / sheds / trace events / acks back up — plus a pipe-based
  control channel for cold-path ops (drain, close_vertex, checkpoint,
  stop).  Cross-group τ-flow is the ``touched``/``kick`` relay: a worker
  reports which shared buffers a dispatch mutated, the coordinator kicks
  the other watcher groups, and their engines mark the watching regions
  dirty and drain (the same dirty-region spill protocol, carried across
  the process boundary).
* The quiescent points defined by checkpoint/drain are the **worker
  lifecycle protocol**: workers adopt their regions via a checkpoint-style
  hand-off (region control states + fairness cursors + buffer contents) at
  start, and restore / reconfigure re-migrate regions through the same
  path — which is why PR 2/8's recovery machinery works unchanged on this
  backend and why checkpoints are byte-compatible across backends.

**Determinism contract.**  The response ring is strictly ordered and every
request gets exactly one ack *after* all records its dispatch produced, so
the coordinator observes each worker's effects in execution order.
``post_*``/``try_*`` additionally wait until the whole cascade of in-flight
requests (including relayed kicks) has quiesced before returning — the
cross-process equivalent of the thread engine's synchronous spill chase —
which is what lets the differential-fuzzing oracle compare this backend
against the interpretive baselines exactly.

**Supervision.**  A worker death (crash, or the ``worker_kill`` fault kind
SIGKILLing it) is detected by the response-ring receiver thread; every
operation routed to the dead worker fails with
:class:`~repro.util.errors.PeerFailedError`, which also becomes the blame
assigned when the remaining parties are later detected as stuck — the same
path task supervision uses for thread crashes.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
import struct
import threading
import time
import weakref
from collections import deque
from multiprocessing import shared_memory

from repro.runtime.buffers import BufferStore
# Imported at module level on purpose: children enter _worker_main via
# fork, and importing runtime/compiler modules *after* the fork could
# deadlock on import locks held by other coordinator threads at fork time.
from repro.runtime.engine import CoordinatorEngine
from repro.runtime.host import _WAIT_TICK, EngineHost, wake, wake_slot
from repro.runtime.recovery import Checkpoint
from repro.runtime.trace import TraceRecorder
from repro.util.errors import (
    CheckpointError,
    DeadlockError,
    OverloadError,
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
    RuntimeProtocolError,
)

try:  # compiled tier is re-emitted in-worker; pre-import it pre-fork too
    from repro.compiler import steps as _steps_preimport  # noqa: F401
except Exception:  # pragma: no cover - compiler layer absent/broken
    pass

#: Fork start method: children inherit the shm mappings, the fifo locks
#: and the already-imported module graph — nothing is pickled at spawn.
_FORK = multiprocessing.get_context("fork")

#: Sentinel returned by ShmRing.get when no record is available.
RING_EMPTY = object()

_DEFAULT_RING_BYTES = 1 << 20   # per-direction request/response ring
_DEFAULT_FIFO_BYTES = 1 << 20   # per shared port buffer arena

#: How long a reader tolerates an inconsistent view of a shared segment
#: before declaring the stream corrupt.  Under memory pressure the host
#: kernel has been observed to expose a page of a live tmpfs segment as
#: zeros for a few milliseconds before the writer's bytes (re)appear —
#: the published tail or a frame length reads 0, then recovers.  Since
#: published frames are immutable and counters are monotonic, re-reading
#: is always safe; only a *persistently* bad view is a real failure.
_SHM_READ_GRACE = 1.0


def _load_u64(buf, off: int) -> int:
    """Torn-read-guarded load of a remote-written 8-byte counter."""
    while True:
        a = struct.unpack_from("<Q", buf, off)[0]
        b = struct.unpack_from("<Q", buf, off)[0]
        if a == b:
            return a


# ---------------------------------------------------------------------------
# Shared-memory primitives
# ---------------------------------------------------------------------------


class ShmRing:
    """Lock-free SPSC byte ring over one shared-memory segment.

    Layout: ``[u64 head][u64 tail][data…]``.  ``head``/``tail`` are
    *monotonic* byte counters (wrapping happens modulo the data capacity at
    access time), each written by exactly one side — the reader owns
    ``head``, the writer owns ``tail`` — so no lock is needed between the
    two processes; 8-byte counter reads of the remote side are guarded
    against torn reads by a stability double-read.  Records are framed
    ``[u32 len][pickle bytes]`` and may wrap across the arena boundary.

    One coordinator-side :class:`threading.Lock` serializes *local*
    writers (several submitter threads share the request ring); the ring
    itself stays single-producer from the other process's point of view.
    """

    HDR = 16

    def __init__(self, shm: shared_memory.SharedMemory):
        self._shm = shm
        self._buf = shm.buf
        self._cap = len(shm.buf) - self.HDR
        # Role-local shadows of the counter this side owns (avoids
        # re-reading our own published value).
        self._head = _load_u64(self._buf, 0)
        self._tail = _load_u64(self._buf, 8)

    @classmethod
    def create(cls, size: int = _DEFAULT_RING_BYTES) -> "ShmRing":
        shm = shared_memory.SharedMemory(create=True, size=cls.HDR + size)
        shm.buf[: cls.HDR] = b"\x00" * cls.HDR
        return cls(shm)

    @property
    def name(self) -> str:
        return self._shm.name

    def _write_bytes(self, pos: int, data: bytes) -> None:
        off = pos % self._cap
        first = min(len(data), self._cap - off)
        base = self.HDR
        self._buf[base + off: base + off + first] = data[:first]
        if first < len(data):
            rest = len(data) - first
            self._buf[base: base + rest] = data[first:]

    def _read_bytes(self, pos: int, n: int) -> bytes:
        off = pos % self._cap
        first = min(n, self._cap - off)
        base = self.HDR
        out = bytes(self._buf[base + off: base + off + first])
        if first < n:
            out += bytes(self._buf[base: base + n - first])
        return out

    def put(self, obj, abort=None) -> None:
        """Append one record; spins (then sleeps) while the ring is full.
        ``abort()`` (e.g. *peer process died*) turns the wait into a
        :class:`RuntimeProtocolError` instead of a hang."""
        try:
            data = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        except Exception as exc:
            raise RuntimeProtocolError(
                f"value crossing the worker boundary is not picklable: {exc}"
            ) from exc
        need = 4 + len(data)
        if need > self._cap:
            raise RuntimeProtocolError(
                f"record of {need} bytes exceeds ring capacity {self._cap}"
            )
        spins = 0
        while self._cap - (self._tail - _load_u64(self._buf, 0)) < need:
            spins += 1
            if abort is not None and abort():
                raise RuntimeProtocolError("ring peer is gone (ring full)")
            if spins > 50:
                time.sleep(0.0002 if spins < 2000 else 0.002)
        self._write_bytes(self._tail, struct.pack("<I", len(data)))
        self._write_bytes(self._tail + 4, data)
        self._tail += need
        struct.pack_into("<Q", self._buf, 8, self._tail)

    def get(self):
        """Pop one record, or :data:`RING_EMPTY` without blocking.

        Tolerates transiently inconsistent segment views (see
        :data:`_SHM_READ_GRACE`): a frame length that cannot fit, a
        frame running past the published tail, or bytes that fail to
        unpickle are all re-read with backoff until the writer's pages
        become visible; only a view that stays bad past the grace
        window raises.
        """
        deadline = None
        while True:
            tail = _load_u64(self._buf, 8)
            if tail == self._head:
                return RING_EMPTY
            if tail > self._head:
                try:
                    n = struct.unpack(
                        "<I", self._read_bytes(self._head, 4)
                    )[0]
                    if 4 + n <= self._cap and self._head + 4 + n <= tail:
                        rec = pickle.loads(
                            self._read_bytes(self._head + 4, n)
                        )
                        self._head += 4 + n
                        struct.pack_into("<Q", self._buf, 0, self._head)
                        return rec
                except Exception:
                    pass
            if deadline is None:
                deadline = time.monotonic() + _SHM_READ_GRACE
            elif time.monotonic() > deadline:
                n = struct.unpack(
                    "<I", self._read_bytes(self._head, 4)
                )[0]
                raise RuntimeProtocolError(
                    f"ring stream corrupt: frame of {n} bytes at head "
                    f"{self._head} (tail {tail}, capacity {self._cap})"
                )
            time.sleep(0.0005)

    def pending(self) -> bool:
        """Reader-side: records remain unread."""
        return _load_u64(self._buf, 8) != self._head

    def close(self, unlink: bool) -> None:
        try:
            self._buf = None
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


class ShmFifo:
    """A deque-compatible FIFO over shared memory — the shm-backed port
    buffer variant.

    Implements exactly the surface the engine and the compiled step
    closures use on a :class:`collections.deque`
    (``append``/``popleft``/``[0]``/``len``/truth/``iter``/``clear``/
    ``extend``), so :meth:`BufferStore.adopt_shared
    <repro.runtime.buffers.BufferStore.adopt_shared>` can swap it in
    without either tier noticing.  Values are pickled into a byte arena
    (``[u64 count][u64 head][u64 tail][data…]``, monotonic byte counters
    as in :class:`ShmRing`); every access holds one fork-inherited
    ``multiprocessing.Lock``, which makes cross-process mutation safe at
    the cost of one futex per op — cheap next to a protocol firing.

    ``local_ops`` counts this *process's* mutations; the worker epilogue
    diffs it against a mark to detect which shared buffers a dispatch
    touched (the τ-flow egress signal).
    """

    HDR = 24

    def __init__(self, shm: shared_memory.SharedMemory, lock, capacity=None):
        self._shm = shm
        self._buf = shm.buf
        self._cap = len(shm.buf) - self.HDR
        self._lock = lock
        self.capacity = capacity
        self.local_ops = 0

    @classmethod
    def create(cls, capacity=None, size: int = _DEFAULT_FIFO_BYTES,
               ctx=_FORK) -> "ShmFifo":
        shm = shared_memory.SharedMemory(create=True, size=cls.HDR + size)
        shm.buf[: cls.HDR] = b"\x00" * cls.HDR
        return cls(shm, ctx.Lock(), capacity)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- unlocked internals -------------------------------------------------

    def _counters(self):
        buf = self._buf
        return (struct.unpack_from("<Q", buf, 0)[0],
                struct.unpack_from("<Q", buf, 8)[0],
                struct.unpack_from("<Q", buf, 16)[0])

    def _read_arena(self, pos: int, n: int) -> bytes:
        off = pos % self._cap
        base = self.HDR
        first = min(n, self._cap - off)
        out = bytes(self._buf[base + off: base + off + first])
        if first < n:
            out += bytes(self._buf[base: base + n - first])
        return out

    def _frame_at(self, pos: int):
        # Caller holds the lock, so the frame cannot change under us —
        # a parse failure means a transiently invisible page (see
        # _SHM_READ_GRACE) and re-reading is safe.
        deadline = None
        while True:
            try:
                n = struct.unpack("<I", self._read_arena(pos, 4))[0]
                if 4 + n <= self._cap:
                    return pickle.loads(self._read_arena(pos + 4, n)), 4 + n
            except Exception:
                pass
            if deadline is None:
                deadline = time.monotonic() + _SHM_READ_GRACE
            elif time.monotonic() > deadline:
                n = struct.unpack("<I", self._read_arena(pos, 4))[0]
                raise RuntimeProtocolError(
                    f"shared buffer arena corrupt: frame of {n} bytes "
                    f"at byte {pos} (capacity {self._cap})"
                )
            time.sleep(0.0005)

    def _write_at(self, pos: int, data: bytes) -> None:
        off = pos % self._cap
        base = self.HDR
        first = min(len(data), self._cap - off)
        self._buf[base + off: base + off + first] = data[:first]
        if first < len(data):
            rest = len(data) - first
            self._buf[base: base + rest] = data[first:]

    # -- deque surface ------------------------------------------------------

    def append(self, value) -> None:
        data = pickle.dumps(value, pickle.HIGHEST_PROTOCOL)
        need = 4 + len(data)
        with self._lock:
            count, head, tail = self._counters()
            if self._cap - (tail - head) < need:
                # A transiently zeroed head counter (see _SHM_READ_GRACE)
                # inflates apparent occupancy; confirm before failing.
                time.sleep(0.002)
                count, head, tail = self._counters()
            if self._cap - (tail - head) < need:
                raise RuntimeProtocolError(
                    f"shared buffer arena exhausted ({self._cap} bytes); "
                    "raise the workers backend's fifo_bytes option"
                )
            self._write_at(tail, struct.pack("<I", len(data)))
            self._write_at(tail + 4, data)
            struct.pack_into("<Q", self._buf, 8, head)
            struct.pack_into("<Q", self._buf, 16, tail + need)
            struct.pack_into("<Q", self._buf, 0, count + 1)
            self.local_ops += 1

    def popleft(self):
        with self._lock:
            count, head, tail = self._counters()
            if not count:
                raise IndexError("pop from an empty deque")
            value, used = self._frame_at(head)
            struct.pack_into("<Q", self._buf, 8, head + used)
            struct.pack_into("<Q", self._buf, 0, count - 1)
            self.local_ops += 1
            return value

    def __getitem__(self, i: int):
        with self._lock:
            count, head, _tail = self._counters()
            if i < 0:
                i += count
            if not 0 <= i < count:
                raise IndexError("fifo index out of range")
            pos = head
            for _ in range(i):
                _value, used = self._frame_at(pos)
                pos += used
            return self._frame_at(pos)[0]

    def __len__(self) -> int:
        with self._lock:
            return self._counters()[0]

    def __bool__(self) -> bool:
        return len(self) > 0

    def __iter__(self):
        with self._lock:
            count, head, _tail = self._counters()
            out, pos = [], head
            for _ in range(count):
                value, used = self._frame_at(pos)
                out.append(value)
                pos += used
        return iter(out)

    def clear(self) -> None:
        with self._lock:
            _count, _head, tail = self._counters()
            struct.pack_into("<Q", self._buf, 8, tail)
            struct.pack_into("<Q", self._buf, 0, 0)
            self.local_ops += 1

    def extend(self, items) -> None:
        for item in items:
            self.append(item)

    def close(self, unlink: bool) -> None:
        try:
            self._buf = None
            self._shm.close()
            if unlink:
                self._shm.unlink()
        except Exception:  # pragma: no cover - teardown best-effort
            pass


# ---------------------------------------------------------------------------
# Portable exceptions
# ---------------------------------------------------------------------------

_EXC_BY_NAME = {
    cls.__name__: cls
    for cls in (PortClosedError, DeadlockError, CheckpointError,
                RuntimeProtocolError, KeyError, ValueError, TypeError,
                IndexError)
}


def _freeze_exc(exc: BaseException) -> tuple:
    """Flatten an exception into a wire-safe ``(type, message, attrs)``
    triple — custom-``__init__`` runtime errors don't round-trip through
    pickle, and worker exceptions must never crash the coordinator."""
    attrs = {}
    for k in ("vertex", "timeout", "kind", "task", "max_pending", "waited"):
        v = getattr(exc, k, None)
        if isinstance(v, (str, int, float)):
            attrs[k] = v
    return (type(exc).__name__, str(exc), attrs)


def _thaw_exc(wire: tuple) -> Exception:
    name, msg, attrs = wire
    if name == "OverloadError":
        return OverloadError(attrs.get("vertex", "?"),
                             attrs.get("max_pending", 0), message=msg)
    if name == "ProtocolTimeoutError":
        return ProtocolTimeoutError(attrs.get("vertex", "?"),
                                    attrs.get("timeout", 0.0),
                                    kind=attrs.get("kind", "operation"))
    if name == "PeerFailedError":
        return PeerFailedError(attrs.get("task", "?"), message=msg)
    cls = _EXC_BY_NAME.get(name)
    if cls is not None:
        try:
            return cls(msg)
        except Exception:  # pragma: no cover - exotic constructor
            pass
    return RuntimeProtocolError(f"{name}: {msg}")


# ---------------------------------------------------------------------------
# Worker process
# ---------------------------------------------------------------------------


class _WorkerSpec:
    """Everything one worker needs, passed by fork inheritance (no
    pickling): its regions (with the hand-off control state already set),
    buffer specs and shared fifos, boundary subsets, and its rings."""

    def __init__(self, wid, regions, gidx, specs, fifos, sources, sinks,
                 registry, compiled, req, resp, pipe, status, touch_names,
                 counted_names, trace):
        self.wid = wid
        self.regions = regions          # region objects (template, adopted)
        self.gidx = gidx                # local region i -> global region idx
        self.specs = specs              # BufferSpec-like (name, cap, initial)
        self.fifos = fifos              # shared name -> ShmFifo
        self.sources = sources
        self.sinks = sinks
        self.registry = registry
        self.compiled = compiled
        self.req = req                  # ShmRing: coordinator -> worker
        self.resp = resp                # ShmRing: worker -> coordinator
        self.pipe = pipe                # control channel (worker end)
        self.status = status            # SharedMemory: [u64 fired][u64 occ]
        self.touch_names = touch_names  # shared names this group watches
        self.counted_names = counted_names  # names this worker's occupancy slot counts
        self.trace = trace              # bool: record + relay trace events


class _Worker:
    """The in-process half: a real regions-mode engine plus the wire glue."""

    def __init__(self, spec: _WorkerSpec):
        self.spec = spec
        store = BufferStore(spec.specs)
        for name, fifo in spec.fifos.items():
            store.adopt_shared(name, fifo)
        self.store = store
        self.tracer = TraceRecorder() if spec.trace else None
        self.inner = CoordinatorEngine(
            spec.regions,
            store,
            frozenset(spec.sources),
            frozenset(spec.sinks),
            registry=spec.registry,
            tracer=self.tracer,
            concurrency="regions",
            compiled=spec.compiled,
        )
        # op_id -> (handle, is_send, vertex); mirrors the coordinator table.
        self.live: dict[int, tuple] = {}
        self.by_handle: dict[int, int] = {}  # id(handle) -> op_id
        self.trace_mark = 0
        self.touch_marks = {n: f.local_ops for n, f in spec.fifos.items()}

    # -- response stream ---------------------------------------------------

    def emit(self, rec) -> None:
        self.spec.resp.put(rec)

    def epilogue(self) -> None:
        """After every dispatch, in strict stream order: new sweeps of the
        live table (completions/failures), new trace events, touched shared
        buffers — then the caller appends exactly one ack.  The status slot
        is updated *before* the ack so a coordinator that has processed the
        ack reads current steps/occupancy."""
        if self.live:
            resolved = []
            for op_id, (h, is_send, vertex) in self.live.items():
                if h.error is not None:
                    self.emit(("fail", op_id, _freeze_exc(h.error)))
                    resolved.append((op_id, h))
                elif h.done:
                    self.emit(("done", op_id,
                               None if is_send else h.value))
                    resolved.append((op_id, h))
            for op_id, h in resolved:
                del self.live[op_id]
                self.by_handle.pop(id(h), None)
        if self.tracer is not None:
            events = self.tracer.events
            if len(events) > self.trace_mark:
                gidx = self.spec.gidx
                batch = [
                    (gidx[ev.region], ev.label, ev.completed_sends,
                     ev.completed_recvs, ev.deliveries, ev.t, ev.waits)
                    for ev in events[self.trace_mark:]
                ]
                self.trace_mark = len(events)
                self.emit(("trace", batch))
        touched = []
        for name, fifo in self.spec.fifos.items():
            if fifo.local_ops != self.touch_marks[name]:
                self.touch_marks[name] = fifo.local_ops
                touched.append(name)
        if touched:
            self.emit(("touched", touched))
        occupancy = sum(
            self.store.occupancy(n) for n in self.spec.counted_names
        )
        struct.pack_into("<QQ", self.spec.status.buf, 0,
                         self.inner.steps, occupancy)

    def ack(self, req_id, status, payload=None) -> None:
        self.epilogue()
        self.emit(("ack", req_id, status, payload))

    # -- dispatch ----------------------------------------------------------

    def do_op(self, op_id, is_send, vertex, value, policy) -> None:
        inner = self.inner
        try:
            if is_send:
                h = inner.post_send(vertex, value)
            else:
                h = inner.post_recv(vertex)
        except Exception as exc:
            self.ack(op_id, "raise", _freeze_exc(exc))
            return
        status = payload = None
        if (policy is not None and policy.kind != "block"
                and not h.done and h.error is None):
            queue = (inner._pending_send if is_send
                     else inner._pending_recv)[vertex]
            if len(queue) > policy.max_pending:
                status, payload = self._overflow(queue, h, policy, vertex)
        if status is None:
            if h.error is not None:
                status, payload = "error", _freeze_exc(h.error)
            elif h.done:
                status, payload = "done", (None if is_send else h.value)
            else:
                status = "pending"
                self.live[op_id] = (h, is_send, vertex)
                self.by_handle[id(h)] = op_id
        self.ack(op_id, status, payload)

    def _overflow(self, queue, h, pol, vertex):
        """The thread engine's queue decision (``_shed_victim``) with the
        outcome put on the ordered response stream instead of booked here,
        so the coordinator keeps the conservation counters exact."""
        region = self.inner._route[vertex]
        victim = self.inner._shed_victim(queue, h, pol, region)
        if victim is None:
            return "reject", (vertex, pol.max_pending)
        victim.done = True
        if victim is h:
            return "shedded", (pol.kind, pol.dead_letter_capacity)
        vid = self.by_handle.pop(id(victim), None)
        if vid is not None:
            del self.live[vid]
            self.emit(("shedded", vid, pol.kind, pol.dead_letter_capacity))
        self.inner._chase([region])  # left dirty: a new head is exposed
        return None, None  # ``h`` took the freed slot: pending like any other

    def do_try(self, op_id, is_send, vertex, value) -> None:
        try:
            if is_send:
                ok = self.inner.try_submit_send(vertex, value)
                payload = (ok, None)
            else:
                ok, got = self.inner.try_submit_recv(vertex)
                payload = (ok, got)
        except Exception as exc:
            self.ack(op_id, "raise", _freeze_exc(exc))
            return
        self.ack(op_id, "tried", payload)

    def do_withdraw(self, op_id) -> None:
        entry = self.live.get(op_id)
        if entry is None:
            self.ack(op_id, "stale")
            return
        h, is_send, vertex = entry
        queue = (self.inner._pending_send if is_send
                 else self.inner._pending_recv)[vertex]
        if self.inner._withdraw_expired(queue, h, is_send):
            del self.live[op_id]
            self.by_handle.pop(id(h), None)
            self.ack(op_id, "withdrawn")
        else:
            self.ack(op_id, "stale")

    def do_clear(self, token) -> None:
        """Deadlock delivery: withdraw every still-live op; the coordinator
        fails exactly the acked ids with the stuck error.  Completions that
        raced ahead were swept first (FIFO stream), so an op is never both
        completed and cleared."""
        self.epilogue()  # sweep before deciding who is still stuck
        cleared = []
        for op_id, (h, is_send, vertex) in list(self.live.items()):
            queue = (self.inner._pending_send if is_send
                     else self.inner._pending_recv)[vertex]
            if self.inner._withdraw_expired(queue, h, is_send):
                cleared.append(op_id)
                del self.live[op_id]
                self.by_handle.pop(id(h), None)
        self.ack(token, "cleared", cleared)

    def do_kick(self, names) -> None:
        self.inner.kick_buffers(names)
        self.ack(None, "kicked")

    # -- control channel ---------------------------------------------------

    def admin(self, msg) -> bool:
        """Handle one pipe request; returns False on ``stop``."""
        kind = msg[0]
        try:
            if kind == "stop":
                self.spec.pipe.send(("ok", None))
                return False
            if kind == "drain":
                self.inner.begin_drain()
                self.epilogue()
                self.spec.pipe.send(("ok", None))
            elif kind == "close_vertex":
                _, vertex, wire = msg
                error = _thaw_exc(wire) if wire is not None else None
                self.inner.close_vertex(vertex, error=error)
                self.epilogue()  # failed ops ride the ring before the reply
                self.spec.pipe.send(("ok", None))
            elif kind == "checkpoint":
                cp = self.inner.checkpoint()
                self.spec.pipe.send(
                    ("ok", (self.spec.gidx, cp.regions, cp.buffers)))
            elif kind == "snapshot":
                self.spec.pipe.send(("ok", self.store.snapshot()))
            elif kind == "precompile":
                self.spec.pipe.send(("ok", self.inner.precompile_plans()))
            elif kind == "stats":
                self.spec.pipe.send(("ok", self.inner.stats()))
            else:  # pragma: no cover - protocol bug
                self.spec.pipe.send(
                    ("err", _freeze_exc(RuntimeProtocolError(
                        f"unknown admin request {kind!r}"))))
        except Exception as exc:
            self.spec.pipe.send(("err", _freeze_exc(exc)))
        return True

    def dispatch(self, rec) -> None:
        tag = rec[0]
        if tag == "op":
            _, op_id, is_send, vertex, value, policy = rec
            self.do_op(op_id, is_send, vertex, value, policy)
        elif tag == "try":
            _, op_id, is_send, vertex, value = rec
            self.do_try(op_id, is_send, vertex, value)
        elif tag == "withdraw":
            self.do_withdraw(rec[1])
        elif tag == "clear":
            self.do_clear(rec[1])
        elif tag == "kick":
            self.do_kick(rec[1])
        else:  # pragma: no cover - protocol bug
            self.ack(None, "error", _freeze_exc(
                RuntimeProtocolError(f"unknown request {tag!r}")))


def _worker_main(spec: _WorkerSpec) -> None:
    """Entry point of a forked region worker."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    exit_code = 0
    try:
        worker = _Worker(spec)
        # Startup hand-off complete (constructor drain included): the ready
        # ack carries the inner stats, which the coordinator's stats() falls
        # back to once this worker can no longer be asked.
        worker.ack(-1, "ready", worker.inner.stats())
        spins = 0
        while True:
            rec = spec.req.get()
            if rec is not RING_EMPTY:
                spins = 0
                worker.dispatch(rec)
                continue
            if spec.pipe.poll(0):
                spins = 0
                if not worker.admin(spec.pipe.recv()):
                    break
                continue
            spins += 1
            if spins > 50:
                time.sleep(0.0002 if spins < 2000 else 0.002)
    except BaseException as exc:  # pragma: no cover - supervision path
        try:
            spec.resp.put(("ack", None, "error", _freeze_exc(exc)))
        except Exception:
            pass
        exit_code = 70
    # Skip atexit/multiprocessing cleanup: the coordinator owns every
    # shared segment, and a child running unlink handlers would race it.
    os._exit(exit_code)


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


class _POp:
    """Coordinator-side operation handle (duck-types engine._Op for ports,
    the fuzz harness and the watchdog)."""

    __slots__ = ("id", "vertex", "value", "is_send", "done", "error",
                 "raised", "event", "t_enq", "steps_enq", "timeout", "wid",
                 "acked", "resubmit", "withdrawing")

    def __init__(self, op_id, vertex, value, is_send, wid):
        self.id = op_id
        self.vertex = vertex
        self.value = value
        self.is_send = is_send
        self.done = False
        self.error = None
        self.raised = None   # admission-time exception (nothing counted)
        self.event = wake_slot()  # waited on twice: ack, then resolution
        self.t_enq = 0.0
        self.steps_enq = 0
        self.timeout = None
        self.wid = wid
        self.acked = False
        self.resubmit = False
        self.withdrawing = False  # a withdraw request is on its way


class _Handle:
    """Coordinator bookkeeping for one worker process."""

    def __init__(self, wid, proc, req, resp, pipe, status, counted_names,
                 local_names, vertices):
        self.wid = wid
        self.proc = proc
        self.req = req
        self.resp = resp
        self.pipe = pipe
        self.status = status
        self.counted_names = counted_names
        self.local_names = local_names
        self.vertices = vertices
        self.req_lock = threading.Lock()
        self.pipe_lock = threading.Lock()
        self.inflight = 0
        self.crashed = False
        self.stopping = False
        self.ready = threading.Event()
        self.ready_stats: dict = {}
        self.receiver: threading.Thread | None = None

    def steps_occupancy(self) -> tuple[int, int]:
        buf = self.status.buf
        if buf is None:  # pragma: no cover - closed
            return 0, 0
        return _load_u64(buf, 0), _load_u64(buf, 8)


class _WorkerBuffers:
    """``engine.buffers`` facade: template names/capacities, merged
    snapshots (shared fifos read directly, group-local buffers fetched over
    the control channel at quiescent moments)."""

    def __init__(self, engine: "WorkerCoordinatorEngine"):
        self._engine = engine

    def names(self):
        return self._engine._store_template.names()

    def capacity(self, name):
        return self._engine._store_template.capacity(name)

    def occupancy(self, name):
        return len(self._engine._snapshot_merged().get(name, ()))

    def snapshot(self):
        return self._engine._snapshot_merged()

    def queue(self, name):
        fifo = self._engine._fifos.get(name)
        if fifo is not None:
            return fifo
        raise RuntimeProtocolError(
            f"buffer {name!r} is local to a region worker; use snapshot()"
        )


class WorkerCoordinatorEngine(EngineHost):
    """The ``concurrency="workers"`` backend: the full
    :class:`~repro.runtime.engine.CoordinatorEngine` surface, with region
    drains executed by forked worker processes (module docstring).  Towards
    the tasks it is the same :class:`~repro.runtime.host.EngineHost`; this
    class adds its hooks plus transport, placement and crash supervision.

    Construction forks the workers and performs the initial region
    hand-off; :meth:`close` (or garbage collection) reaps them and unlinks
    every shared segment.  ``workers`` bounds the process count — at most
    one worker per region is ever useful, so the effective count is
    ``min(workers, len(regions))``.
    """

    def __init__(
        self,
        regions,
        buffers: BufferStore,
        sources: frozenset,
        sinks: frozenset,
        registry=None,
        expected_parties: int | None = None,
        tracer=None,
        default_timeout: float | None = None,
        detection_grace: float = 0.05,
        overload=None,
        metrics=None,
        compiled: str = "auto",
        workers: int = 2,
        ring_bytes: int = _DEFAULT_RING_BYTES,
        fifo_bytes: int = _DEFAULT_FIFO_BYTES,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if not hasattr(os, "fork"):  # pragma: no cover - non-POSIX
            raise RuntimeProtocolError(
                "concurrency='workers' needs fork-capable multiprocessing"
            )
        super().__init__(
            "workers", sources, sinks, registry, expected_parties, tracer,
            default_timeout, detection_grace, overload, metrics, compiled,
            buffers,
        )
        self.workers = workers
        self._ring_bytes = ring_bytes
        self._fifo_bytes = fifo_bytes

        self._regions_template = list(regions)
        self._store_template = buffers
        self.buffers = _WorkerBuffers(self)

        # Admin lock (outermost): serializes lifecycle operations and the
        # brief routing+enqueue prelude of every submission against them.
        # The host's _lock (inner) guards all mutable bookkeeping; receiver
        # threads take only _lock, so lifecycle ops may wait for acks while
        # holding _admin without deadlocking the stream.
        self._admin = threading.RLock()

        self._ops: dict[int, _POp] = {}
        self._next_op = 0
        self._inflight = 0
        self._quiet = threading.Event()
        self._quiet.set()

        self._clearing = False
        self._clear_error: Exception | None = None
        self._clear_token = 0

        self._handles: list[_Handle] = []
        self._fifos: dict[str, ShmFifo] = {}
        self._fifo_watchers: dict[str, tuple] = {}
        self._vertex_wid: dict[str, int] = {}
        self._final_snapshot: dict | None = None
        self._finalizer = None

        self._start_workers(handoff=buffers.snapshot())

        if metrics is not None:
            metrics.attach_engine(self)

    # ------------------------------------------------------------ lifecycle

    def _partition(self):
        """Round-robin region→group assignment plus the routing maps the
        thread engine would have built in ``_adopt_regions``."""
        regions = self._regions_template
        n = max(1, min(self.workers, len(regions)))
        group_of = {i: i % n for i in range(len(regions))}
        route: dict[str, int] = {}
        for i, r in enumerate(regions):
            for v in r.vertices:
                route.setdefault(v, group_of[i])
        if regions:
            for v in list(self.sources) + list(self.sinks):
                route.setdefault(v, group_of[0])
        buffer_groups: dict[str, set] = {}
        for i, r in enumerate(regions):
            for b in r.buffer_names():
                buffer_groups.setdefault(b, set()).add(group_of[i])
        for name in self._store_template.names():
            buffer_groups.setdefault(name, {group_of[0] if regions else 0})
        return n, group_of, route, buffer_groups

    def _start_workers(self, handoff: dict) -> None:
        n, group_of, route, buffer_groups = self._partition()
        store = self._store_template
        for name, items in handoff.items():
            cap = store.capacity(name)
            if cap is not None and len(items) > cap:
                raise CheckpointError(
                    f"hand-off for buffer {name!r} exceeds capacity {cap}"
                )
        shared = sorted(n for n, gs in buffer_groups.items() if len(gs) > 1)
        fifos = {
            name: ShmFifo.create(store.capacity(name),
                                 size=self._fifo_bytes)
            for name in shared
        }
        for name, fifo in fifos.items():
            fifo.extend(handoff[name])
        self._fifos = fifos
        self._fifo_watchers = {
            name: tuple(sorted(buffer_groups[name])) for name in shared
        }
        self._vertex_wid = route

        from repro.automata.automaton import BufferSpec

        handles = []
        for wid in range(n):
            gidx = [i for i in range(len(self._regions_template))
                    if group_of[i] == wid]
            regions = [self._regions_template[i] for i in gidx]
            group_names = set()
            for r in regions:
                group_names.update(r.buffer_names())
            if wid == 0:
                # Orphaned buffers (store names no region carries) follow
                # the orphan-vertex fallback to group 0.
                group_names.update(
                    nm for nm, gs in buffer_groups.items() if gs == {0})
            local_names = sorted(nm for nm in group_names if nm not in fifos)
            specs = [
                BufferSpec(nm, store.capacity(nm), tuple(handoff[nm]))
                for nm in local_names
            ] + [
                BufferSpec(nm, store.capacity(nm), ())
                for nm in sorted(group_names & set(fifos))
            ]
            counted = list(local_names) + [
                nm for nm in shared if self._fifo_watchers[nm][0] == wid
            ]
            vertices = frozenset(v for v, g in route.items() if g == wid)
            req = ShmRing.create(self._ring_bytes)
            resp = ShmRing.create(self._ring_bytes)
            status = shared_memory.SharedMemory(create=True, size=16)
            status.buf[:16] = b"\x00" * 16
            parent_pipe, child_pipe = _FORK.Pipe()
            spec = _WorkerSpec(
                wid=wid,
                regions=regions,
                gidx=gidx,
                specs=specs,
                fifos={nm: fifos[nm] for nm in group_names & set(fifos)},
                sources=[v for v in self.sources if v in vertices],
                sinks=[v for v in self.sinks if v in vertices],
                registry=self.registry,
                compiled=self._compiled,
                req=req,
                resp=resp,
                pipe=child_pipe,
                status=status,
                touch_names=sorted(group_names & set(fifos)),
                counted_names=counted,
                trace=self.tracer is not None,
            )
            proc = _FORK.Process(
                target=_worker_main, args=(spec,),
                name=f"repro-region-worker-{wid}", daemon=True,
            )
            h = _Handle(wid, proc, req, resp, parent_pipe, status,
                        counted_names=counted, local_names=local_names,
                        vertices=vertices)
            handles.append(h)
        self._handles = handles
        self._final_snapshot = None
        with self._lock:
            for h in handles:
                h.inflight = 1            # the ready ack
                self._inflight += 1
            self._quiet.clear()
        for h in handles:
            h.proc.start()
            h.receiver = threading.Thread(
                target=self._receive_loop, args=(h,),
                name=f"repro-worker-recv-{h.wid}", daemon=True,
            )
            h.receiver.start()
        self._finalizer = weakref.finalize(
            self, _cleanup_segments,
            [h.req for h in handles] + [h.resp for h in handles],
            list(fifos.values()),
            [h.status for h in handles],
            [h.proc for h in handles],
        )
        deadline = time.monotonic() + 30.0
        for h in handles:
            if not h.ready.wait(max(0.0, deadline - time.monotonic())):
                self._teardown_workers(force=True)
                raise RuntimeProtocolError(
                    f"region worker {h.wid} failed to start"
                )
            if h.crashed:
                self._teardown_workers(force=True)
                raise RuntimeProtocolError(
                    f"region worker {h.wid} died during start-up"
                )

    def _teardown_workers(self, force: bool = False) -> None:
        """Stop every worker (graceful pipe stop, then terminate), join the
        receivers, fold the step counters into the base, and unlink all
        shared segments owned by this generation."""
        handles, self._handles = self._handles, []
        fired_total = 0
        for h in handles:
            h.stopping = True
        for h in handles:
            fired, _occ = h.steps_occupancy()
            fired_total += fired
            if h.proc.exitcode is None and not force:
                try:
                    with h.pipe_lock:
                        h.pipe.send(("stop",))
                        h.pipe.poll(1.0) and h.pipe.recv()
                except Exception:
                    pass
            h.proc.join(timeout=2.0)
            if h.proc.exitcode is None:
                h.proc.terminate()
                h.proc.join(timeout=2.0)
        self._steps_base += fired_total
        with self._lock:
            for h in handles:
                self._dec_inflight_locked(h, h.inflight)
        for h in handles:
            if h.receiver is not None and h.receiver.is_alive():
                h.receiver.join(timeout=2.0)
            h.req.close(unlink=True)
            h.resp.close(unlink=True)
            try:
                h.status.close()
                h.status.unlink()
            except Exception:
                pass
            try:
                h.pipe.close()
            except Exception:
                pass
        fifos, self._fifos = self._fifos, {}
        for fifo in fifos.values():
            fifo.close(unlink=True)
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None

    # ---------------------------------------------------------- the stream

    def _receive_loop(self, h: _Handle) -> None:
        spins = 0
        while True:
            try:
                rec = h.resp.get()
            except Exception as exc:
                # The ring vanished under us (teardown unlinked it while we
                # were mid-read) or the stream desynchronized.  A receiver
                # death with the worker still running would strand every op
                # on that worker forever — convert it into an explicit peer
                # failure instead.
                if not h.stopping and h.proc.exitcode is None:
                    try:
                        os.kill(h.proc.pid, signal.SIGKILL)
                        h.proc.join(timeout=2.0)
                    except Exception:
                        pass
                    self._on_crash(h, reason=f"response stream failed: {exc}")
                return
            if rec is RING_EMPTY:
                if h.proc.exitcode is not None and not h.resp.pending():
                    if not h.stopping:
                        self._on_crash(h)
                    return
                spins += 1
                if h.stopping and spins > 200:
                    return
                if spins > 50:
                    time.sleep(0.0002 if spins < 2000 else 0.002)
                continue
            spins = 0
            try:
                self._handle_record(h, rec)
            except Exception:  # pragma: no cover - keep the stream alive
                pass

    def _dec_inflight_locked(self, h: _Handle, n: int = 1) -> None:
        """``n`` of ``h``'s requests are no longer in flight (acked, or
        written off with the worker)."""
        h.inflight -= n
        self._inflight -= n
        if self._inflight <= 0:
            self._inflight = 0
            self._quiet.set()

    def _bump(self, table_name: str, vertex: str) -> None:
        mx = self._metrics
        child = getattr(mx, table_name).get(vertex) if mx is not None else None
        if child is not None:
            child.value += 1.0

    def _resolve_done(self, op: _POp, value) -> None:
        if not op.is_send:
            op.value = value
        op.done = True
        self._ops.pop(op.id, None)
        self._bump("done", op.vertex)
        self._mark_active(op.vertex)
        wake(op.event)

    def _resolve_error(self, op: _POp, error: Exception) -> None:
        op.error = error
        self._ops.pop(op.id, None)
        self._bump("wd_send" if op.is_send else "wd_recv", op.vertex)
        wake(op.event)

    def _resolve_shed(self, op: _POp, kind: str, capacity) -> None:
        """The coordinator half of a shed the worker adjudicated."""
        self._record_shed(op.vertex, op.value, kind, capacity)
        op.done = True
        self._ops.pop(op.id, None)
        wake(op.event)

    def _handle_record(self, h: _Handle, rec) -> None:
        tag = rec[0]
        if tag in ("done", "fail", "shedded"):
            with self._lock:
                op = self._ops.get(rec[1])
                if op is None:
                    return  # already resolved (withdrawn, cleared, crashed)
                if tag == "done":
                    self._resolve_done(op, rec[2])
                elif tag == "fail":
                    self._resolve_error(op, _thaw_exc(rec[2]))
                else:
                    self._resolve_shed(op, rec[2], rec[3])
        elif tag == "trace":
            if self.tracer is not None:
                for (region, label, sends, recvs, deliveries,
                     t, waits) in rec[1]:
                    self.tracer.record(region, label, sends, recvs,
                                       deliveries, t=t, waits=waits)
        elif tag == "touched":
            self._relay_kicks(h.wid, rec[1])
        elif tag == "ack":
            self._handle_ack(h, rec)

    def _relay_kicks(self, from_wid: int, names) -> None:
        targets: dict[int, list] = {}
        for name in names:
            for wid in self._fifo_watchers.get(name, ()):
                if wid != from_wid:
                    targets.setdefault(wid, []).append(name)
        for wid, batch in targets.items():
            target = self._handle(wid)
            if target is not None and not target.stopping:
                self._put(target, ("kick", batch))

    def _handle_ack(self, h: _Handle, rec) -> None:
        _, req_id, status, payload = rec
        with self._lock:
            if status == "ready":
                h.ready_stats = payload or {}
                h.ready.set()
            elif status == "kicked":
                pass
            elif status == "cleared":
                error = self._clear_error or PortClosedError("engine stuck")
                for op_id in payload:
                    op = self._ops.get(op_id)
                    if op is not None:
                        self._resolve_error(op, error)
            elif status == "error" and req_id is None:
                # worker main loop died with a diagnostic; the process-exit
                # path will fail the ops — just remember the cause.
                self._peer_failures.append(PeerFailedError(
                    f"region-worker-{h.wid}", message=str(_thaw_exc(payload))
                ))
                return  # no inflight slot to release
            else:
                op = self._ops.get(req_id)
                if op is not None:
                    # An op sees at most two acks: the admission ack, and a
                    # later withdraw ack ("withdrawn"/"stale") reusing its
                    # id.  Only the first carries admission accounting.
                    admission = not op.acked
                    op.acked = True
                    self._apply_op_ack(op, status, payload,
                                       admission=admission)
            self._dec_inflight_locked(h)

    def _apply_op_ack(self, op: _POp, status: str, payload,
                      admission: bool = True) -> None:
        """Coordinator half of the admission accounting (mirrors the thread
        engine's submit-side counter discipline; _lock held)."""
        if status == "raise":
            op.raised = _thaw_exc(payload)
            self._ops.pop(op.id, None)
            wake(op.event)
            return
        if admission and not op.resubmit:
            self._bump("sub_send" if op.is_send else "sub_recv", op.vertex)
            self._mark_active(op.vertex)
        if status == "pending":
            # Stays in the table; a later record resolves it.  The slot is
            # still woken so the submitter stops waiting for the ack (post
            # returns its handle, submit goes on to _wait_blocked, the
            # acquire that took this wake having re-armed the slot) —
            # resolution records set op.done/op.error *before* waking, so
            # a wake that lands first is seen by _wait_blocked's first test.
            wake(op.event)
            return
        if status == "done":
            self._resolve_done(op, payload)
        elif status == "tried":
            ok, value = payload
            if ok:
                self._resolve_done(op, value)
            else:  # a probe that found nothing is withdrawn, not failed
                self._ops.pop(op.id, None)
                self._bump("wd_send" if op.is_send else "wd_recv",
                           op.vertex)
                wake(op.event)
        elif status == "error":
            self._resolve_error(op, _thaw_exc(payload))
        elif status == "reject":
            vertex, max_pending = payload
            self._record_rejected(vertex)
            op.raised = OverloadError(vertex, max_pending)
            self._ops.pop(op.id, None)
            wake(op.event)
        elif status == "shedded":
            self._resolve_shed(op, *payload)
        elif status == "withdrawn":
            timeout = op.timeout if op.timeout is not None else 0.0
            self._resolve_error(
                op, ProtocolTimeoutError(op.vertex, timeout))
        elif status == "stale":
            pass  # an earlier record in the stream already resolved it

    def _on_crash(self, h: _Handle, reason: str | None = None) -> None:
        detail = reason or f"died (exit code {h.proc.exitcode})"
        error = PeerFailedError(
            f"region-worker-{h.wid}",
            message=f"region worker {h.wid} {detail}",
        )
        with self._lock:
            h.crashed = True
            self._peer_failures.append(error)
            for op in list(self._ops.values()):
                if op.wid == h.wid:
                    self._resolve_error(op, error)
            self._dec_inflight_locked(h, h.inflight)
            self._suspect = None
            # Remaining waiters re-run detection and blame the dead worker
            # via _peer_failures.
            self._wake_all_locked()

    # --------------------------------------------------------- submissions

    def _handle(self, wid: int) -> "_Handle | None":
        """The live generation's handle for worker ``wid`` (handles are
        created in wid order), ``None`` between generations."""
        return self._handles[wid] if 0 <= wid < len(self._handles) else None

    def _handle_for(self, vertex: str) -> _Handle:
        wid = self._vertex_wid.get(vertex)
        if wid is None:
            raise KeyError(vertex)
        h = self._handle(wid)
        if h is None:
            raise PortClosedError(f"vertex {vertex!r} closed")
        return h

    def _dead_worker_error(self, h: _Handle) -> PeerFailedError:
        """A worker-is-dead error carrying the recorded root cause (the
        crash supervisor's diagnosis) instead of a bare "is dead"."""
        for err in reversed(self._peer_failures):
            if err.task == f"region-worker-{h.wid}":
                return PeerFailedError(err.task, message=str(err))
        return PeerFailedError(
            f"region-worker-{h.wid}",
            message=f"region worker {h.wid} is dead",
        )

    def _put(self, h: _Handle, rec, op: "_POp | None" = None):
        """Send one request down ``h``'s ring — the only writer of request
        rings.  The request is counted in flight *before* it is written, so
        ``_wait_quiet`` covers it and everything it cascades into; ``op``
        (the operation the request submits) enters the table under the same
        lock hold, so its ack always finds it.  A ring that stays full
        aborts when the worker exits.  Returns ``None``, or — count and
        table rolled back — the :class:`PeerFailedError` saying why the
        worker could not be reached."""
        with self._lock:
            if h.crashed:
                return self._dead_worker_error(h)
            if op is not None:
                op.wid = h.wid
                self._ops[op.id] = op
            h.inflight += 1
            self._inflight += 1
            self._quiet.clear()
        try:
            with h.req_lock:
                h.req.put(rec, abort=lambda: h.proc.exitcode is not None)
        except Exception as exc:
            with self._lock:
                if op is not None:
                    self._ops.pop(op.id, None)
                self._dec_inflight_locked(h)
            return PeerFailedError(
                f"region-worker-{h.wid}", cause=exc,
                message=f"lost contact with region worker {h.wid}: {exc}",
            )
        return None

    def _enqueue(self, op: _POp, rec) -> None:
        error = self._put(self._handle_for(op.vertex), rec, op)
        if error is not None:
            raise error

    def _new_op(self, vertex: str, value, is_send: bool) -> _POp:
        with self._lock:
            self._next_op += 1
            op = _POp(self._next_op, vertex, value, is_send, wid=-1)
        op.t_enq = time.monotonic()
        return op

    def _send_request(self, vertex: str, value, is_send: bool, policy,
                      kind: str = "op") -> _POp:
        """Common admission prelude + request enqueue (+ ack wait)."""
        with self._admin:
            self._check_open(vertex)
            if is_send and self._draining:
                raise PortClosedError(
                    f"vertex {vertex!r} rejected: connector draining"
                )
            op = self._new_op(vertex, value, is_send)
            if kind == "op":
                pol = (policy if policy is not None
                       else self._policies.get(vertex))
                rec = ("op", op.id, is_send, vertex, value, pol)
            else:
                rec = ("try", op.id, is_send, vertex, value)
            self._enqueue(op, rec)
        while not op.event.acquire(True, _WAIT_TICK):
            if op.acked or op.done or op.error or op.raised:
                break
        # The ack always arrives (crash resolves via _on_crash), so at this
        # point the op is acked or terminally resolved.
        if op.raised is not None:
            raise op.raised
        return op

    def _wait_quiet(self) -> None:
        """Block until every in-flight request — including relayed kick
        cascades — has been acked and processed: the cross-process
        equivalent of the thread engine's synchronous spill chase."""
        while not self._quiet.wait(_WAIT_TICK):
            pass

    def post_send(self, vertex: str, value, policy=None):
        op = self._send_request(vertex, value, True, policy)
        self._wait_quiet()
        return op

    def post_recv(self, vertex: str):
        op = self._send_request(vertex, None, False, None)
        self._wait_quiet()
        return op

    def try_submit_send(self, vertex: str, value) -> bool:
        op = self._send_request(vertex, value, True, None, kind="try")
        self._wait_quiet()
        return op.done

    def try_submit_recv(self, vertex: str):
        op = self._send_request(vertex, None, False, None, kind="try")
        self._wait_quiet()
        return (op.done, op.value if op.done else None)

    def submit_send(self, vertex: str, value, timeout=None, policy=None):
        self._submit(vertex, value, True, policy, timeout)

    def submit_recv(self, vertex: str, timeout=None):
        return self._submit(vertex, None, False, None, timeout).value

    def _submit(self, vertex, value, is_send, policy, timeout) -> _POp:
        op = self._send_request(vertex, value, is_send, policy)
        if op.error is not None:
            raise op.error
        if not op.done:
            if timeout is None:
                timeout = self.default_timeout
            op.timeout = timeout
            deadline = None if timeout is None else op.t_enq + timeout
            self._wait_blocked(None, op, timeout, deadline, is_send)
        return op

    def _withdraw_expired(self, _queue, op: _POp, _is_send) -> bool:
        """Host hook: ask the op's worker, once, to withdraw it.  Never
        ``True`` — the answer rides the ordered stream, where a completion
        that raced ahead wins (``stale``) and ``withdrawn`` resolves the op
        with its :class:`ProtocolTimeoutError` — so park here until the op
        is resolved or the next detector tick is due."""
        if not op.withdrawing:
            op.withdrawing = True
            h = self._handle(op.wid)
            if h is not None:
                self._put(h, ("withdraw", op.id))
        op.event.acquire(True, _WAIT_TICK)
        return False

    # ----------------------------------------------------------- host hooks

    def _freeze(self) -> tuple:
        return ()  # the operation table stands still under _lock alone

    @property
    def _steps_approx(self) -> int:
        return self.steps

    def _pending_count(self) -> int:
        return len(self._ops)

    def _pending_ops(self, vertices):
        return [op for op in self._ops.values() if op.vertex in vertices]

    def _wake_all_locked(self) -> None:
        for op in self._ops.values():
            wake(op.event)

    def _stuck_count(self) -> int:
        """The table is a consistent reading only with nothing in flight
        (every request acked, every record before its ack applied) and no
        clear round under way."""
        if self._clearing or self._closed or self._inflight:
            return 0
        return len(self._ops)

    def _stuck_state(self) -> dict:
        depths: dict = {"pending_sends": {}, "pending_recvs": {},
                        "region_states": []}
        for op in self._ops.values():
            table = depths["pending_sends" if op.is_send else "pending_recvs"]
            table[op.vertex] = table.get(op.vertex, 0) + 1
        return depths

    def _deliver_deadlock(self, err: Exception):
        """Start a clear round (``_lock`` held): every live worker withdraws
        what it still holds and acks the ids, and exactly those fail with
        ``err`` (``cleared`` in ``_handle_ack``).  The requests go out after
        the lock drops; once their acks have drained, detection re-arms."""
        self._clearing = True
        self._clear_error = err
        self._clear_token += 1
        token = self._clear_token
        targets = [h for h in self._handles if not h.stopping]

        def clear_round():
            for h in targets:
                self._put(h, ("clear", token))
            threading.Thread(target=self._rearm, daemon=True).start()
        return clear_round

    def _rearm(self) -> None:
        self._wait_quiet()
        with self._lock:
            self._clearing = False
            self._suspect = None

    # ------------------------------------------------------------ admin ops

    def _admin_call(self, h: _Handle, msg, timeout: float = 15.0):
        with h.pipe_lock:
            if h.crashed or h.proc.exitcode is not None:
                raise self._dead_worker_error(h)
            h.pipe.send(msg)
            deadline = time.monotonic() + timeout
            while not h.pipe.poll(0.05):
                if h.proc.exitcode is not None:
                    raise PeerFailedError(
                        f"region-worker-{h.wid}",
                        message=(f"region worker {h.wid} died during "
                                 f"{msg[0]!r}"),
                    )
                if time.monotonic() > deadline:
                    raise RuntimeProtocolError(
                        f"worker {h.wid} control channel timed out on "
                        f"{msg[0]!r}"
                    )
            status, payload = h.pipe.recv()
        if status == "err":
            raise _thaw_exc(payload)
        return payload

    def close_vertex(self, vertex: str, error=None) -> None:
        with self._admin:
            with self._lock:
                self._note_closed(vertex, error)
            h = self._handle(self._vertex_wid.get(vertex, -1))
            if h is not None and not h.crashed:
                try:
                    self._admin_call(h, (
                        "close_vertex", vertex,
                        _freeze_exc(error) if error is not None else None,
                    ))
                except PeerFailedError:
                    pass
                self._wait_quiet()
            with self._lock:
                self._wake_all_locked()

    def begin_drain(self) -> None:
        with self._admin:
            with self._lock:
                self._draining = True
            for h in self._handles:
                if not h.crashed:
                    try:
                        self._admin_call(h, ("drain",))
                    except PeerFailedError:
                        pass
            with self._lock:
                self._wake_all_locked()

    @property
    def drained(self) -> bool:
        self._wait_quiet()
        with self._lock:
            if any(op.is_send for op in self._ops.values()):
                return False
        occupancy = sum(h.steps_occupancy()[1] for h in self._handles)
        return occupancy <= self._initial_occupancy

    @property
    def quiescent(self) -> bool:
        self._wait_quiet()
        with self._lock:
            return not self._ops and self._blocked == 0

    def close(self) -> None:
        with self._admin:
            if self._closed:
                return
            with self._lock:
                self._closed = True
                for op in list(self._ops.values()):
                    self._resolve_error(
                        op, PortClosedError(f"vertex {op.vertex!r} closed"))
            try:
                self._final_snapshot = self._snapshot_live()
            except Exception:
                self._final_snapshot = None
            self._teardown_workers()

    # ------------------------------------------------- checkpoint / restore

    def _quiesce(self, action: str) -> None:
        """``_require_quiescent`` across the process boundary: let the
        stream drain first, and refuse a generation with a dead worker (its
        regions' state is gone)."""
        self._wait_quiet()
        with self._lock:
            self._require_quiescent(action)
        for h in self._handles:
            if h.crashed:
                raise CheckpointError(
                    f"{action} rejected: region worker {h.wid} crashed"
                )

    def _snapshot_live(self) -> dict:
        merged: dict = {}
        for h in self._handles:
            if h.crashed:
                continue
            snap = self._admin_call(h, ("snapshot",))
            for name, items in snap.items():
                if name not in self._fifos:
                    merged[name] = tuple(items)
        for name, fifo in self._fifos.items():
            merged[name] = tuple(fifo)
        return merged

    def _snapshot_merged(self) -> dict:
        with self._admin:
            if not self._handles:
                if self._final_snapshot is not None:
                    return dict(self._final_snapshot)
                return self._store_template.snapshot()
            self._wait_quiet()
            try:
                return self._snapshot_live()
            except PeerFailedError:
                # Best effort after a crash: shared truth + template names.
                out = self._store_template.snapshot()
                for name, fifo in self._fifos.items():
                    out[name] = tuple(fifo)
                return out

    def checkpoint(self, name: str = "") -> Checkpoint:
        with self._admin:
            self._quiesce("checkpoint")
            region_states: list = [None] * len(self._regions_template)
            buffers: dict = {}
            for h in self._handles:
                gidx, states, snap = self._admin_call(h, ("checkpoint",))
                for gi, rs in zip(gidx, states):
                    region_states[gi] = rs
                for nm, items in snap.items():
                    if nm not in self._fifos:
                        buffers[nm] = tuple(items)
            for nm, fifo in self._fifos.items():
                buffers[nm] = tuple(fifo)
            if any(rs is None for rs in region_states):
                raise CheckpointError(
                    "worker checkpoint hand-off missed a region"
                )
            with self._lock:
                return self._checkpoint_of(name, region_states, buffers)

    def restore(self, cp: Checkpoint) -> None:
        """Restore = re-migrate every region through the hand-off path:
        validate, stop the current workers at their quiescent point, stamp
        the checkpointed control state onto the templates, and fork a
        fresh generation."""
        with self._admin:
            self._quiesce("restore")
            validated = self._validate_checkpoint(
                cp, self._regions_template, self._store_template)
            self._teardown_workers()
            self._install_states(cp, self._regions_template, validated)
            self._steps_base = cp.steps
            with self._lock:
                self._suspect = None
            if self.tracer is not None:
                self.tracer.clear()
            self._start_workers(handoff=dict(cp.buffers))

    def reconfigure(self, regions, buffers, sources, sinks, vertex_map,
                    expected_delta: int = 0, initial_occupancy=None) -> None:
        """Re-parametrization: stop the worker generation at its quiescent
        hand-off point, swap the protocol structure, restart, and re-route
        surviving pending operations (departed vertices fail with
        :class:`PortClosedError`, exactly like the thread engine)."""
        with self._admin:
            self._wait_quiet()
            with self._lock:
                held = list(self._ops.values())
                self._ops.clear()
            # Pull every surviving op out of the old generation so teardown
            # sees quiescent workers (withdrawals are counted only for ops
            # that do not come back below).
            self._teardown_workers()
            self._regions_template = list(regions)
            self._store_template = buffers
            with self._lock:
                self._remap_boundary(
                    vertex_map, frozenset(sources), frozenset(sinks),
                    expected_delta, initial_occupancy)
            self._start_workers(handoff=buffers.snapshot())
            boundary = self.sources | self.sinks
            for op in held:
                if op.done or op.error is not None:
                    continue
                new_vertex = vertex_map.get(op.vertex)
                if new_vertex not in boundary:
                    with self._lock:
                        self._resolve_error(op, PortClosedError(
                            f"vertex {op.vertex!r} left the protocol"))
                    continue
                op.vertex = new_vertex
                op.acked = False
                op.resubmit = True
                pol = self._policies.get(new_vertex)
                self._enqueue(op, ("op", op.id, op.is_send, new_vertex,
                                   op.value, pol))
            self._wait_quiet()
            if self._metrics is not None:
                self._metrics.attach_engine(self)

    # ------------------------------------------------------------- sampling

    @property
    def steps(self) -> int:
        return self._steps_base + sum(
            h.steps_occupancy()[0] for h in self._handles)

    @property
    def scan_total(self) -> int:
        return self._scan_base

    def pending_depths(self):
        with self._lock:
            depths: dict[tuple, int] = {}
            for op in self._ops.values():
                key = (op.vertex, "send" if op.is_send else "recv")
                depths[key] = depths.get(key, 0) + 1
        rows = [(v, "send", depths.get((v, "send"), 0))
                for v in self.sources]
        rows += [(v, "recv", depths.get((v, "recv"), 0))
                 for v in self.sinks]
        return rows

    def buffered_total(self) -> int:
        return sum(h.steps_occupancy()[1] for h in self._handles)

    def precompile_plans(self) -> int:
        total = 0
        for h in self._handles:
            if not h.crashed:
                total += self._admin_call(h, ("precompile",))
        return total

    def routing_table(self) -> dict:
        """vertex -> worker id (the cross-process analog of the thread
        engine's vertex -> region route)."""
        return dict(self._vertex_wid)

    def worker_pids(self) -> dict:
        return {h.wid: h.proc.pid for h in self._handles}

    def kill_worker(self, wid: int) -> bool:
        """SIGKILL one region worker (fault injection); supervision then
        fails its operations with :class:`PeerFailedError`."""
        for h in self._handles:
            if h.wid == wid and h.proc.exitcode is None:
                os.kill(h.proc.pid, signal.SIGKILL)
                h.proc.join(timeout=2.0)
                return True
        return False

    def _worker_stats(self, h: _Handle) -> dict:
        """What worker ``h``'s engine counts now, or — once it can no
        longer be asked — what it counted at its ready handshake."""
        if not h.crashed and not h.stopping:
            try:
                return self._admin_call(h, ("stats",))
            except (PeerFailedError, RuntimeProtocolError):
                pass
        return h.ready_stats

    def stats(self) -> dict:
        """The thread engine's keys, the per-worker ones summed over the
        live generation (asked over the control channel, so a JIT
        connector's ``expansions`` and ``compiled_states`` grow with
        traffic); all of them read 0 after ``close()``."""
        out = {
            "steps": self.steps,
            "plans": 0,
            "regions": len(self._regions_template),
            "parties": len(self._parties),
            "blocked": self._blocked,
            "parks": self._parks,
            "shed": self.dead.count(),
            "draining": self._draining,
            "concurrency": "workers",
            "workers": len(self._handles),
            "step_tier": self._compiled,
            "expansions": 0,
            "cached_states": 0,
            "compiled_regions": 0,
            "compiled_states": 0,
            "emitted_steps": 0,
        }
        with self._admin:
            for h in self._handles:
                stats = self._worker_stats(h)
                for key in ("plans", "expansions", "cached_states",
                            "compiled_regions", "compiled_states",
                            "emitted_steps"):
                    out[key] += stats.get(key, 0)
        return out


def _cleanup_segments(rings, fifos, statuses, procs):  # pragma: no cover
    """weakref.finalize safety net: an engine dropped without close() must
    not leak /dev/shm segments or zombie workers."""
    for proc in procs:
        try:
            if proc.exitcode is None:
                proc.terminate()
        except Exception:
            pass
    for ring in rings:
        ring.close(unlink=True)
    for fifo in fifos:
        fifo.close(unlink=True)
    for status in statuses:
        try:
            status.close()
            status.unlink()
        except Exception:
            pass
