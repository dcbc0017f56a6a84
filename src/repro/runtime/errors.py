"""The runtime error hierarchy — one base to catch them all.

Everything the *runtime* raises deliberately derives from
:class:`ReproRuntimeError` (itself a :class:`~repro.util.errors.ReproError`),
so a serving layer can wrap an entire session in one ``except
ReproRuntimeError`` and know it caught every protocol-level failure —
timeouts, dead peers, deadlocks, overload rejections, stale checkpoints,
closed ports — without also catching programming errors.

Until PR 7 these classes were flat siblings of the compile-time taxonomy
with no shared runtime base; this module is now the canonical runtime-facing
import site for the consolidated hierarchy.  The class *objects* live in
:mod:`repro.util.errors` (the dependency-free root package every subpackage
may import from — see ``repro/util/__init__.py``), so the historic import
sites — ``from repro.util.errors import DeadlockError`` — keep working
verbatim and resolve to the very same classes re-exported here.

Hierarchy::

    ReproError                      (repro.util.errors — library root)
    └── ReproRuntimeError           ← catch-all for the serving layer
        ├── CompileError            run-time compilation errors
        │                           (also a ValueError, for historic callers)
        └── RuntimeProtocolError    protocol misuse & failures
            ├── DeadlockError
            ├── PortClosedError
            ├── CheckpointError
            ├── DurabilityError       durable store failures (PR 8)
            │   ├── SnapshotCorruptError
            │   └── SchemaVersionError
            ├── ProtocolTimeoutError  (also a TimeoutError)
            ├── OverloadError
            ├── StallError
            └── PeerFailedError

:class:`~repro.runtime.faults.InjectedFault` (the fault-injection crash)
also derives from :class:`ReproRuntimeError`, so chaos-harness crashes stay
inside the same catchable hierarchy.  See docs/INTERNALS.md §5.
"""

from __future__ import annotations

from repro.util.errors import (
    CheckpointError,
    CompileError,
    DeadlockError,
    DurabilityError,
    OverloadError,
    PeerFailedError,
    PortClosedError,
    ProtocolTimeoutError,
    ReproRuntimeError,
    RuntimeProtocolError,
    SchemaVersionError,
    SnapshotCorruptError,
    StallError,
)

__all__ = [
    "ReproRuntimeError",
    "CompileError",
    "RuntimeProtocolError",
    "DeadlockError",
    "PortClosedError",
    "CheckpointError",
    "DurabilityError",
    "SnapshotCorruptError",
    "SchemaVersionError",
    "ProtocolTimeoutError",
    "OverloadError",
    "StallError",
    "PeerFailedError",
]
