"""The shared buffer store backing fifo-like primitives at run time.

Automaton transitions manipulate buffers only through constraint effects
(push/pop) and guards (not-full/not-empty); the store holds the actual
deques.  It is *not* internally synchronized — all access happens under the
engine lock.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable

from repro.automata.automaton import BufferSpec
from repro.util.errors import RuntimeProtocolError


class BufferStore:
    """Named bounded/unbounded FIFO buffers."""

    def __init__(self, specs: Iterable[BufferSpec] = ()):
        self._queues: dict[str, deque] = {}
        self._capacity: dict[str, int | None] = {}
        for spec in specs:
            self.declare(spec)

    def declare(self, spec: BufferSpec) -> None:
        if spec.name in self._queues:
            if self._capacity[spec.name] != spec.capacity:
                raise RuntimeProtocolError(
                    f"buffer {spec.name!r} redeclared with different capacity"
                )
            return
        if spec.capacity is not None and len(spec.initial) > spec.capacity:
            raise RuntimeProtocolError(
                f"buffer {spec.name!r} initial contents exceed capacity"
            )
        self._queues[spec.name] = deque(spec.initial)
        self._capacity[spec.name] = spec.capacity

    def empty(self, name: str) -> bool:
        return not self._queues[name]

    def full(self, name: str) -> bool:
        cap = self._capacity[name]
        return cap is not None and len(self._queues[name]) >= cap

    def peek(self, name: str):
        return self._queues[name][0]

    def pop(self, name: str):
        return self._queues[name].popleft()

    def push(self, name: str, value) -> None:
        self._queues[name].append(value)

    def occupancy(self, name: str) -> int:
        return len(self._queues[name])

    def queue(self, name: str) -> deque:
        """The live deque behind ``name`` — the step compiler binds this
        object into generated closures, which is why :meth:`set_contents`
        must mutate it in place rather than replace it."""
        return self._queues[name]

    def capacity(self, name: str) -> int | None:
        return self._capacity[name]

    def names(self) -> tuple[str, ...]:
        return tuple(self._queues)

    def snapshot(self) -> dict[str, tuple]:
        """Immutable view of all buffer contents (debugging/tests)."""
        return {name: tuple(q) for name, q in self._queues.items()}

    def set_contents(self, name: str, items) -> None:
        """Replace one buffer's contents wholesale (checkpoint restore and
        re-parametrization migration)."""
        if name not in self._queues:
            raise RuntimeProtocolError(f"unknown buffer {name!r}")
        items = tuple(items)
        cap = self._capacity[name]
        if cap is not None and len(items) > cap:
            raise RuntimeProtocolError(
                f"buffer {name!r} cannot hold {len(items)} values (capacity {cap})"
            )
        # Mutate in place: compiled step functions (repro.compiler.steps)
        # close over the deque objects, so replacing them would silently
        # detach the compiled tier from the store.
        q = self._queues[name]
        q.clear()
        q.extend(items)

    def restore(self, snapshot: dict[str, tuple]) -> None:
        """Replace *all* contents from a checkpoint snapshot.

        The snapshot must cover exactly this store's buffer names — a
        mismatch means the checkpoint was taken from a structurally
        different connector, which is an error, not a best-effort merge.
        """
        if set(snapshot) != set(self._queues):
            missing = sorted(set(self._queues) - set(snapshot))
            extra = sorted(set(snapshot) - set(self._queues))
            raise RuntimeProtocolError(
                f"buffer snapshot does not match store (missing {missing}, "
                f"unknown {extra})"
            )
        for name, items in snapshot.items():
            self.set_contents(name, items)
