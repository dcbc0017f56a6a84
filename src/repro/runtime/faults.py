"""Deterministic fault injection at ports — the robustness test harness.

A :class:`FaultPlan` is a seeded, reproducible schedule of faults to inject
at *named ports* on their *Nth operation*: delay the operation, drop the
message, crash the task, or close the port.  Plans wrap ports from the
outside (:meth:`FaultPlan.wrap`) — the engine hot path is untouched when no
plan is installed, and an unlisted port is returned unwrapped.

Fault kinds (``FaultSpec.kind``):

* ``"delay"`` — sleep ``delay`` seconds before the operation (models a slow
  peer; must surface as completion-within-timeout or
  :class:`~repro.util.errors.ProtocolTimeoutError`, never a hang);
* ``"drop"`` — on an outport, swallow the value (it is never offered to the
  connector); on an inport, receive and discard one message, then perform
  the real receive (models message loss);
* ``"crash"`` — raise :class:`InjectedFault` in the acting task (models a
  dying task; under :class:`~repro.runtime.tasks.SupervisedTaskGroup` the
  peers must observe :class:`~repro.util.errors.PeerFailedError`);
* ``"close"`` — close the underlying port, then attempt the operation
  (which raises :class:`~repro.util.errors.PortClosedError`);
* ``"crash_then_recover"`` — like ``"crash"``, but the raised
  :class:`InjectedFault` is marked *recoverable*: under a
  :class:`~repro.runtime.recovery.RestartPolicy` whose ``restart_on``
  includes :class:`InjectedFault`, supervision relaunches the task and the
  protocol completes as if uninterrupted (the fault slot is consumed, so
  the relaunched run sails past it).  Not drawn by :meth:`FaultPlan.random`
  under the default ``kinds`` — pass it explicitly — so existing seeded
  plans keep their exact schedules;
* ``"slow_task"`` — from the ``at_op``-th operation onward, sleep ``delay``
  seconds before *every* operation on the port (models a pathologically
  slow task, as opposed to ``"delay"``'s one-off hiccup; the
  :class:`~repro.runtime.watchdog.Watchdog` is what should notice);
* ``"flood"`` — on an outport, send ``factor`` extra copies of the value
  before the real send (models an overloading producer; with an overload
  policy installed the surplus must be shed, without one it must
  only slow things down, never corrupt them).  A no-op on inports.
* ``"latency_spike"`` — from the ``at_op``-th operation onward, sleep a
  *seeded random* duration in ``[0, delay]`` before every operation on the
  port (models network-ish jitter, as opposed to ``"slow_task"``'s constant
  crawl).  The per-operation draws come from ``random.Random`` seeded with
  ``(spec.seed, port, at_op)``, so the whole jitter sequence is exactly
  reproducible in operation order; the drawn delays are recorded on the
  wrapped port (``.spikes``) for regression assertions.

Like ``"crash_then_recover"``, the overload and jitter kinds are opt-in for
:meth:`FaultPlan.random` (pass them via ``kinds=``), keeping existing
seeded schedules stable.

Usage::

    plan = FaultPlan.random(seed=7, port_names=[p.name for p in outs + ins])
    outs = [plan.wrap(p) for p in outs]
    ins = [plan.wrap(p) for p in ins]
    ...run the protocol; every task must end in success or a typed
    ReproError within its timeout — ``plan.applied`` says what was injected.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from repro.runtime.errors import ReproRuntimeError

#: Injectable fault kinds, in the order ``FaultPlan.random`` draws from.
#: Deliberately unchanged since PR 1: seeded plans built over these four
#: kinds must keep their exact schedules.
KINDS = ("delay", "drop", "crash", "close")

#: Every valid ``FaultSpec.kind`` — ``KINDS`` plus the recoverable crash,
#: the overload kinds, and the jitter kind, which tests opt into explicitly
#: (``kinds=("delay", "crash_then_recover", "flood", "latency_spike")``).
ALL_KINDS = KINDS + ("crash_then_recover", "slow_task", "flood",
                     "latency_spike")

#: The persistent kinds: armed once at their ``at_op``, then affecting
#: every subsequent operation on the port.
_PERSISTENT_KINDS = ("slow_task", "latency_spike")


class InjectedFault(ReproRuntimeError):
    """Raised inside a task by a ``"crash"`` or ``"crash_then_recover"``
    fault (and nothing else)."""

    def __init__(self, spec: "FaultSpec"):
        self.spec = spec
        super().__init__(f"injected fault: {spec}")

    @property
    def recoverable(self) -> bool:
        """True when the plan intends this crash to be healed by a restart
        (kind ``"crash_then_recover"``) rather than propagated to peers."""
        return self.spec.kind == "crash_then_recover"


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: ``kind`` at ``port`` on its ``at_op``-th
    operation (1-based, counted per wrapped port)."""

    kind: str
    port: str
    at_op: int
    delay: float = 0.0
    #: ``"flood"`` only: how many extra copies to send before the real one.
    factor: int = 0
    #: ``"latency_spike"`` only: seed of the per-operation jitter draws.
    seed: int = 0

    def __post_init__(self):
        if self.kind not in ALL_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of {ALL_KINDS}"
            )
        if self.at_op < 1:
            raise ValueError(f"at_op is 1-based, got {self.at_op}")
        if self.kind == "flood" and self.factor < 1:
            raise ValueError("flood needs factor >= 1 (extra copies to send)")
        if self.kind == "latency_spike" and self.delay <= 0.0:
            raise ValueError("latency_spike needs delay > 0 (the jitter bound)")

    def __str__(self) -> str:
        extra = ""
        if self.kind in ("delay", "slow_task"):
            extra = f" ({self.delay}s)"
        elif self.kind == "latency_spike":
            extra = f" (<= {self.delay}s, seed {self.seed})"
        elif self.kind == "flood":
            extra = f" (x{self.factor})"
        return f"{self.kind}@{self.port}#{self.at_op}{extra}"


class FaultPlan:
    """A deterministic schedule of :class:`FaultSpec`\\ s.

    At most one fault per (port, operation index); later specs for an
    occupied slot are ignored.  ``applied`` records every spec that actually
    fired, in injection order (thread-safe), so tests can assert the plan
    was exercised.
    """

    def __init__(self, specs=(), name: str = ""):
        self.name = name
        self._by_port: dict[str, dict[int, FaultSpec]] = {}
        for spec in specs:
            self._by_port.setdefault(spec.port, {}).setdefault(spec.at_op, spec)
        self.applied: list[FaultSpec] = []
        self._lock = threading.Lock()

    @classmethod
    def random(
        cls,
        seed: int,
        port_names,
        n_faults: int = 3,
        kinds=KINDS,
        max_op: int = 8,
        max_delay: float = 0.02,
    ) -> "FaultPlan":
        """A reproducible plan: the same ``seed`` + arguments always yield
        the same faults."""
        rng = random.Random(seed)
        names = list(port_names)
        specs = []
        for _ in range(n_faults):
            kind = rng.choice(list(kinds))
            specs.append(
                FaultSpec(
                    kind=kind,
                    port=rng.choice(names),
                    at_op=rng.randint(1, max_op),
                    delay=round(rng.uniform(0.001, max_delay), 4)
                    if kind in ("delay", "slow_task", "latency_spike")
                    else 0.0,
                    factor=rng.randint(1, 3) if kind == "flood" else 0,
                    seed=seed if kind == "latency_spike" else 0,
                )
            )
        return cls(specs, name=f"seed{seed}")

    @property
    def specs(self) -> list[FaultSpec]:
        return [s for ops in self._by_port.values() for s in ops.values()]

    def applied_of(self, *kinds: str) -> list[FaultSpec]:
        """The applied specs of the given kind(s), in injection order."""
        with self._lock:
            return [s for s in self.applied if s.kind in kinds]

    def _lookup(self, port_name: str, op_index: int) -> FaultSpec | None:
        return self._by_port.get(port_name, {}).get(op_index)

    def _record(self, spec: FaultSpec) -> None:
        with self._lock:
            self.applied.append(spec)

    def wrap(self, port):
        """Wrap ``port`` if the plan schedules faults for its name; ports
        the plan never mentions are returned unwrapped (zero overhead)."""
        if port.name not in self._by_port:
            return port
        if hasattr(port, "send"):
            return FaultyOutport(self, port)
        return FaultyInport(self, port)

    def wrap_all(self, ports) -> list:
        return [self.wrap(p) for p in ports]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        specs = ", ".join(str(s) for s in sorted(self.specs, key=str))
        return f"<FaultPlan {self.name or 'anon'} [{specs}]>"


class _FaultyPort:
    """Delegating proxy around one port, counting its operations."""

    def __init__(self, plan: FaultPlan, port):
        self._plan = plan
        self._port = port
        self._ops = 0
        self._ops_lock = threading.Lock()
        self._slow: FaultSpec | None = None  # armed persistent kind, if any
        self._jitter: random.Random | None = None  # "latency_spike" draws
        #: Jitter delays actually slept (seconds, operation order) — the
        #: seeded-determinism regression surface for "latency_spike".
        self.spikes: list[float] = []

    def __getattr__(self, attr):
        return getattr(self._port, attr)

    def _next_fault(self) -> FaultSpec | None:
        with self._ops_lock:
            self._ops += 1
            spec = self._plan._lookup(self._port.name, self._ops)
            if spec is not None and spec.kind in _PERSISTENT_KINDS:
                # Persistent: from this op onward every operation crawls
                # (slow_task) or jitters (latency_spike).  Recorded once, at
                # onset; the ongoing slowness is the watchdog's to notice,
                # not the plan's to re-log.
                if self._slow is None:
                    self._slow = spec
                    if spec.kind == "latency_spike":
                        self._jitter = random.Random(
                            f"{spec.seed}:{spec.port}:{spec.at_op}"
                        )
                    self._plan._record(spec)
                spec = None
            slow = self._slow
            nap = 0.0
            if slow is not None:
                if slow.kind == "latency_spike":
                    # Drawn under the op lock, so draw i belongs to op i —
                    # the sequence is deterministic in operation order.
                    nap = self._jitter.uniform(0.0, slow.delay)
                    self.spikes.append(nap)
                else:
                    nap = slow.delay
        if nap:
            time.sleep(nap)
        return spec

    def _pre(self, spec: FaultSpec | None) -> str | None:
        """Apply the pre-operation part of a fault; returns the kind when
        the operation itself must be altered ('drop'/'flood') — None means
        proceed normally."""
        if spec is None:
            return None
        self._plan._record(spec)
        if spec.kind == "delay":
            time.sleep(spec.delay)
            return None
        if spec.kind in ("crash", "crash_then_recover"):
            raise InjectedFault(spec)
        if spec.kind == "close":
            self._port.close()
            return None  # the delegated operation now raises PortClosedError
        return spec.kind  # "drop" / "flood"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<faulty {self._port!r}>"


class FaultyOutport(_FaultyPort):
    def send(self, value, timeout: float | None = None) -> None:
        spec = self._next_fault()
        kind = self._pre(spec)
        if kind == "drop":
            return  # the value silently never reaches the connector
        if kind == "flood":
            # Surplus copies first; whatever overload handling is installed
            # must absorb them (shed) — the real send follows.
            for _ in range(spec.factor):
                self._port.send(value, timeout=timeout)
        self._port.send(value, timeout=timeout)

    def try_send(self, value) -> bool:
        spec = self._next_fault()
        kind = self._pre(spec)
        if kind == "drop":
            return True  # reported sent, never offered
        if kind == "flood":
            for _ in range(spec.factor):
                self._port.try_send(value)
        return self._port.try_send(value)


class FaultyInport(_FaultyPort):
    def recv(self, timeout: float | None = None):
        kind = self._pre(self._next_fault())
        if kind == "drop":
            self._port.recv(timeout=timeout)  # swallow one message...
        return self._port.recv(timeout=timeout)  # ...then the real receive
        # ("flood" is send-side; on an inport it deliberately does nothing)

    def try_recv(self) -> tuple[bool, object]:
        kind = self._pre(self._next_fault())
        if kind == "drop":
            ok, _ = self._port.try_recv()  # swallow (if anything is there)
        return self._port.try_recv()


def assert_recovered(plan: FaultPlan, records) -> None:
    """Recovery-aware plan assertion: every injected ``crash_then_recover``
    was absorbed by supervision instead of reaching the program.

    ``records`` are the :class:`~repro.runtime.tasks.SupervisedTask`\\ s of
    the run (the objects ``SupervisedTaskGroup.spawn`` returned).  Asserts:

    * no task ended with an unabsorbed exception (each either succeeded or
      departed via re-parametrization);
    * the tasks were restarted exactly once per applied recoverable crash —
      neither fewer (a crash leaked) nor more (a restart loop).

    Call after the group has exited (all records joined).
    """
    recoverable = plan.applied_of("crash_then_recover")
    failed = [
        r.name for r in records if r.exception is not None and not r.departed
    ]
    assert not failed, (
        f"plan {plan.name}: tasks {failed} failed permanently despite "
        f"recoverable-crash plan {plan!r}"
    )
    restarts = sum(r.restarts for r in records)
    assert restarts == len(recoverable), (
        f"plan {plan.name}: {len(recoverable)} recoverable crashes applied "
        f"but {restarts} restarts happened"
    )


# --------------------------------------------------------------------------
# File-level fault: torn writes against the durable store
# --------------------------------------------------------------------------


def torn_write(path, seed: int) -> dict:
    """Corrupt the *tail* of one durable-store file, deterministically.

    The port-level kinds above inject faults into a live protocol; this one
    injects the disk-side failure mode the durable layer
    (:mod:`repro.runtime.durable`) must survive: a write that was torn by a
    crash.  Two seeded modes, drawn from ``random.Random(f"torn:{seed}:{n}")``
    where ``n`` is the file size (so the same seed tears the same file the
    same way, the determinism the crash harness's replay depends on):

    * ``truncate`` — chop 1..tail-length bytes off the end (a partial
      final write);
    * ``bitflip`` — flip one random bit inside the final record's line
      (silent media corruption; CRC32 catches every single-bit flip).

    The final record is the last one before the NUL padding of a journal
    left by a crash (:func:`~repro.runtime.durable.strip_padding`); a
    truncation drops the padding with it.

    Mutates the file in place and returns a report dict
    (``{"path", "mode", "size", "padding", "removed" | "offset"/"bit"}``,
    ``padding`` the NUL bytes found after the final record).  A missing or
    empty (or all-NUL) file is a no-op (``mode="skip"``).
    """
    import os as _os

    from repro.runtime.durable import strip_padding

    path = str(path)
    try:
        size = _os.path.getsize(path)
    except OSError:
        return {"path": path, "mode": "skip", "size": 0}
    with open(path, "r+b") as fh:
        data = fh.read()
        end = len(strip_padding(data))
        if end == 0:
            return {"path": path, "mode": "skip", "size": size}
        rng = random.Random(f"torn:{seed}:{len(data)}")
        # the last line region: everything after the penultimate newline
        cut = data[:end - 1].rfind(b"\n") + 1
        tail_len = max(1, end - cut)
        if rng.random() < 0.5:
            removed = rng.randint(1, tail_len)
            fh.truncate(end - removed)
            return {"path": path, "mode": "truncate", "size": size,
                    "padding": size - end, "removed": removed}
        offset = cut + rng.randrange(tail_len)
        bit = rng.randrange(8)
        fh.seek(offset)
        fh.write(bytes([data[offset] ^ (1 << bit)]))
        return {"path": path, "mode": "bitflip", "size": size,
                "padding": size - end, "offset": offset, "bit": bit}
