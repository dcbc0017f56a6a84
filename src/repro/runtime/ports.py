"""Outports and inports — the task-facing API (paper Fig. 1 and §II).

Ports are created standalone (as in the paper's Fig. 4 ``main``), then bound
to a connector via ``Connector.connect(outports, inports)``.  In the
generalized Foster–Chandy model both :meth:`Outport.send` and
:meth:`Inport.recv` block until the connector completes the operation.

Fault tolerance: blocking operations accept a ``timeout`` (seconds); a port
may also *declare its owning task* via :meth:`_Port.set_owner`, which
registers that task as a party on the engine — the basis of precise
deadlock detection and of :class:`repro.runtime.tasks.SupervisedTaskGroup`'s
crash propagation.  :meth:`_Port.fail` closes the port delivering a custom
error (e.g. :class:`~repro.util.errors.PeerFailedError`) to blocked peers
instead of a bare :class:`PortClosedError`.
"""

from __future__ import annotations

import itertools
import threading

from repro.util.errors import PortClosedError, RuntimeProtocolError

_port_ids = itertools.count()


class _Port:
    """Common state of outports and inports."""

    def __init__(self, name: str = ""):
        self.name = name or f"port{next(_port_ids)}"
        self._engine = None
        self._connector = None  # set by RuntimeConnector.connect (for leave())
        self._vertex: str | None = None
        self._closed = False
        self._bound = None  # the engine's binding of _vertex while usable
        self._lock = threading.Lock()
        self._owner = None  # party key registered with the engine
        self._owner_name = ""

    # -- binding (called by RuntimeConnector.connect) ----------------------

    def _bind(self, engine, vertex: str) -> None:
        with self._lock:
            if self._engine is not None:
                raise RuntimeProtocolError(
                    f"port {self.name!r} is already connected (to vertex "
                    f"{self._vertex!r}); a port belongs to exactly one connector"
                )
            self._engine = engine
            self._vertex = vertex
            if not self._closed:
                self._bound = engine.binding(vertex)
            owner, owner_name = self._owner, self._owner_name
        if owner is not None:
            engine.register_party(owner, name=owner_name, vertex=vertex)

    def _unusable(self):
        """Raise why this port has no binding: never connected, or closed."""
        if self._engine is None:
            raise RuntimeProtocolError(
                f"port {self.name!r} is not connected to any connector"
            )
        raise PortClosedError(f"port {self.name!r} is closed")

    def _rebind_vertex(self, vertex: str) -> None:
        """Point this port at a renamed boundary vertex (re-parametrization:
        the engine object survives, only the vertex names shift)."""
        with self._lock:
            self._vertex = vertex
            if self._bound is not None:
                self._bound = self._engine.binding(vertex)

    def _detach(self) -> None:
        """Remove this port from its protocol *without* poisoning peers.

        Used for permanent departures (``RuntimeConnector.leave``): the
        port becomes unusable (as if closed) and its party registration is
        dropped, but — unlike :meth:`close` — the engine-side vertex is not
        failed, because re-parametrization is about to delete that vertex
        entirely.
        """
        with self._lock:
            self._closed = True
            self._bound = None
        self.release_owner()

    @property
    def connected(self) -> bool:
        return self._engine is not None

    @property
    def closed(self) -> bool:
        return self._closed

    # -- ownership (party registration) ------------------------------------

    def set_owner(self, key, name: str = "") -> None:
        """Declare the task owning this port.  If (or once) the port is
        bound, the owner is registered as a party of the engine; closing the
        port unregisters it.  Supervision uses this to track which ports to
        fail when a task dies."""
        with self._lock:
            if self._owner is not None and self._owner is not key:
                raise RuntimeProtocolError(
                    f"port {self.name!r} already has an owner"
                )
            already = self._owner is key
            self._owner = key
            self._owner_name = name
            engine, vertex = self._engine, self._vertex
        if engine is not None and not already:
            engine.register_party(key, name=name, vertex=vertex)

    def release_owner(self) -> None:
        """Unregister this port's owner from the engine (the owning task
        exited normally, or the port is closing)."""
        with self._lock:
            key = self._owner
            self._owner = None
            engine, vertex = self._engine, self._vertex
        if key is not None and engine is not None:
            engine.unregister_party(key, vertex=vertex)

    # -- closing ------------------------------------------------------------

    def close(self, error: Exception | None = None) -> None:
        """Close the port; pending and future operations raise
        :class:`PortClosedError` (or ``error`` when given)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            self._bound = None
            engine, vertex = self._engine, self._vertex
        if engine is not None:
            engine.close_vertex(vertex, error=error)
        self.release_owner()

    def fail(self, error: Exception) -> None:
        """Close the port on behalf of a crashed owner: blocked and future
        peers on this vertex get ``error`` instead of PortClosedError, and
        the engine remembers it so stuck peers elsewhere blame the crash."""
        self.close(error=error)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else ("bound" if self.connected else "unbound")
        return f"<{type(self).__name__} {self.name} ({state})>"


class Outport(_Port):
    """A task's sending interface: ``send`` offers a message to the linked
    vertex and blocks until the connector is ready to handle it (§III.A)."""

    def send(self, value, timeout: float | None = None) -> None:
        """Blocking send (under a ``shed_newest`` connector policy, a send
        past the bound is shed and returns at once)."""
        b = self._bound or self._unusable()
        self._engine.submit(b, value, None, timeout)

    def try_send(self, value) -> bool:
        """Non-blocking send: complete the operation only if a transition
        can fire with it immediately; otherwise withdraw the offer."""
        b = self._bound or self._unusable()
        return self._engine.try_submit(b, value)[0]


class Inport(_Port):
    """A task's receiving interface: ``recv`` blocks until a message becomes
    available through the connector."""

    def recv(self, timeout: float | None = None):
        b = self._bound or self._unusable()
        return self._engine.submit(b, None, None, timeout).value

    def try_recv(self) -> tuple[bool, object]:
        """Non-blocking receive; returns ``(completed, value)``."""
        b = self._bound or self._unusable()
        return self._engine.try_submit(b)


def mkports(n_out: int, n_in: int, prefix: str = "") -> tuple[list[Outport], list[Inport]]:
    """Convenience factory: ``n_out`` outports and ``n_in`` inports."""
    outs = [Outport(f"{prefix}out{i}" if prefix else "") for i in range(n_out)]
    ins = [Inport(f"{prefix}in{i}" if prefix else "") for i in range(n_in)]
    return outs, ins
