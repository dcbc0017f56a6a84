"""Overload policies and dead-letter capture — admission control data types.

PRs 1–2 made the runtime survive *crashes*; this module is the vocabulary of
the *overload* story: what happens when operations arrive faster than the
protocol can absorb them.  Following the Reo line of work, these are
cross-cutting concerns of the *coordinator*, not of application tasks — one
policy is attached to every source vertex of a connector/engine, and tasks
keep calling plain ``send``/``recv``.

* :class:`OverloadPolicy` — the connector's admission discipline:

  - ``"block"`` (default): the submitter blocks until the connector
    completes the operation.  Backpressure through blocking is the bound:
    each queued operation is one parked task thread.  A ``block`` policy
    binds exactly as no policy.
  - ``"shed_newest"`` (drop-tail): past ``max_pending`` queued sends, the
    *incoming* value is captured in the dead-letter buffer and the send
    reports success — the producer keeps running, the protocol never sees
    the value.

  Shedding is only meaningful for *sends* (a receive has no value to
  capture), so receives always block.

* :class:`DeadLetter` / :class:`DeadLetterBuffer` — every shed value is
  recorded (bounded per vertex by ``dead_letter_capacity``; eviction is
  counted, never silent), so an application can reconcile exactly which
  values the coordinator dropped and why.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass

#: Valid admission disciplines, in documentation order.
POLICY_KINDS = ("block", "shed_newest")


@dataclass(frozen=True)
class OverloadPolicy:
    """Admission discipline for the source vertices of one connector.

    ``max_pending`` bounds each source vertex's pending-send queue; it must
    be given for ``shed_newest`` (for ``block`` it is ignored — the queue is
    naturally bounded by the number of blocked task threads).
    ``max_pending=0`` means *immediate-only*: a send that cannot complete in
    the submission drain is shed right away.

    ``dead_letter_capacity`` bounds the per-vertex dead-letter buffer
    ``shed_newest`` captures into (oldest dead letters are evicted first; the
    total shed *count* is kept exactly regardless).
    """

    kind: str = "block"
    max_pending: int | None = None
    dead_letter_capacity: int = 256

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise ValueError(
                f"unknown overload policy {self.kind!r}; expected one of "
                f"{POLICY_KINDS}"
            )
        if self.kind == "shed_newest":
            if self.max_pending is None:
                raise ValueError(
                    f"policy {self.kind!r} needs max_pending (the queue bound)"
                )
            if self.max_pending < 0:
                raise ValueError("max_pending must be >= 0")
        if self.dead_letter_capacity < 1:
            raise ValueError("dead_letter_capacity must be >= 1")


@dataclass(frozen=True)
class DeadLetter:
    """One shed value: which vertex dropped it, under which policy kind,
    and when (``seq`` is a per-engine shed sequence number, ``step`` the
    engine's global step count at shed time — both deterministic under
    seeded schedules, unlike wall-clock timestamps)."""

    vertex: str
    value: object
    policy: str
    seq: int
    step: int


class DeadLetterBuffer:
    """Thread-safe, per-vertex bounded capture of shed values.

    ``capture`` appends a :class:`DeadLetter` (evicting the oldest past the
    vertex's capacity — evictions increment the exact per-vertex counter,
    so accounting never lies even when the buffer forgot the value itself).
    Letters of vertices that left the signature are kept apart from the
    live ones (:meth:`remap`).
    """

    def __init__(self):
        self._by_vertex: dict[str, deque[DeadLetter]] = {}
        self._counts: dict[str, int] = {}
        #: Letters (bounded like one vertex's) and exact count of departed
        #: vertices: history no live vertex name can reach.
        self._departed: deque[DeadLetter] = deque()
        self._departed_count = 0
        self._capacity = 1  # largest per-vertex capacity a capture used
        self._seq = 0
        self._lock = threading.Lock()

    def capture(
        self, vertex: str, value, policy: str, step: int, capacity: int
    ) -> DeadLetter:
        with self._lock:
            letter = DeadLetter(vertex, value, policy, self._seq, step)
            self._seq += 1
            self._capacity = max(self._capacity, capacity)
            q = self._by_vertex.get(vertex)
            if q is None:
                q = self._by_vertex[vertex] = deque()
            q.append(letter)
            while len(q) > capacity:
                q.popleft()
            self._counts[vertex] = self._counts.get(vertex, 0) + 1
            return letter

    def of(self, vertex: str) -> tuple[DeadLetter, ...]:
        """The retained dead letters of one vertex, oldest first."""
        with self._lock:
            return tuple(self._by_vertex.get(vertex, ()))

    def all(self) -> tuple[DeadLetter, ...]:
        """Every retained dead letter, departed vertices' included, in shed
        (``seq``) order."""
        with self._lock:
            out = [*self._departed,
                   *(l for q in self._by_vertex.values() for l in q)]
        return tuple(sorted(out, key=lambda l: l.seq))

    def count(self, vertex: str | None = None) -> int:
        """Exact number of values ever shed (per live vertex, or in total,
        departed vertices included) — includes letters the bounded buffer
        has since evicted."""
        with self._lock:
            if vertex is not None:
                return self._counts.get(vertex, 0)
            return sum(self._counts.values()) + self._departed_count

    def retained(self) -> dict[str, int]:
        """Dead letters currently held per vertex (excludes evicted ones —
        :meth:`count` keeps the exact totals).  This is what the sampled
        ``repro_overload_dead_letters`` gauge reads at collect time."""
        with self._lock:
            return {v: len(q) for v, q in self._by_vertex.items() if q}

    def remap(self, vertex_map: dict[str, str]) -> None:
        """Rename vertices across a re-parametrization.  ``vertex_map``
        names every surviving vertex; the letters and count of one it does
        not name move to the departed history, so a survivor renamed onto
        the departed name starts from its own letters alone."""
        with self._lock:
            gone = [l for v, q in self._by_vertex.items()
                    if v not in vertex_map for l in q]
            self._departed = deque(sorted(
                [*self._departed, *gone], key=lambda l: l.seq
            )[-self._capacity:])
            self._departed_count += sum(
                n for v, n in self._counts.items() if v not in vertex_map)
            self._by_vertex = {vertex_map[v]: q for v, q
                               in self._by_vertex.items() if v in vertex_map}
            self._counts = {vertex_map[v]: n for v, n
                            in self._counts.items() if v in vertex_map}

    def __len__(self) -> int:
        with self._lock:
            return len(self._departed) + sum(
                len(q) for q in self._by_vertex.values())
