"""Error taxonomy for the whole library.

Every exception raised deliberately by :mod:`repro` derives from
:class:`ReproError`, so callers can catch library failures without catching
programming errors.  The hierarchy mirrors the pipeline: parsing/scoping →
compilation → runtime.

The runtime half of the taxonomy shares the :class:`ReproRuntimeError`
base (PR 7) and is re-exported by :mod:`repro.runtime.errors` — the
runtime-facing import site the serving layer uses.  The classes are
*defined* here because :mod:`repro.util` is the dependency-free root every
other subpackage may import from (see ``repro/util/__init__.py``); both
module paths resolve to the same class objects.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class of all errors raised by the repro library."""


class ParseError(ReproError):
    """Raised by the DSL lexer/parser on malformed protocol source.

    Carries the 1-based source position for diagnostics.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0):
        self.line = line
        self.column = column
        if line:
            message = f"{line}:{column}: {message}"
        super().__init__(message)


class ScopeError(ReproError):
    """Raised when a name is unbound, rebound, or used with the wrong arity."""


class WellFormednessError(ReproError):
    """Raised when a connector graph violates structural well-formedness.

    Examples: a vertex written by two arc ends, an arc referencing a vertex
    absent from the graph, an empty array parameter.
    """


class CompilationError(ReproError):
    """Raised when a protocol cannot be compiled (either approach)."""


class CompilationBudgetExceeded(CompilationError):
    """Raised when eager (ahead-of-time) composition exceeds its state budget.

    This models the paper's observation that the *existing* compiler fails on
    connectors whose large automaton has a state space exponential in the
    number of medium automata (Fig. 12, dotted bins).
    """

    def __init__(self, budget: int, reached: int, message: str = ""):
        self.budget = budget
        self.reached = reached
        super().__init__(
            message
            or f"state budget exceeded: explored {reached} states, budget {budget}"
        )


class ConstraintError(ReproError):
    """Raised when a transition's data constraint cannot be planned or solved."""


# --------------------------------------------------------------------------
# Runtime errors: one catchable hierarchy under ReproRuntimeError.
# Canonical import site: repro.runtime.errors (docs/INTERNALS.md §5).
# --------------------------------------------------------------------------


class ReproRuntimeError(ReproError):
    """Common base of every error the runtime raises deliberately.

    The serving layer (:mod:`repro.serve`) catches exactly this: anything
    else escaping a session body is a bug in the application code, not a
    protocol failure for supervision to absorb.
    :class:`~repro.runtime.faults.InjectedFault` also derives from it, so
    chaos-harness crashes stay inside the same catchable hierarchy.
    """


class CompileError(ReproRuntimeError, ValueError):
    """Raised by the run-time compilation tier (commandification, step-function
    codegen, composition-mode/granularity selection) when something cannot be
    compiled *at run time*.

    Distinct from :class:`CompilationError`, which covers the front-end
    (text → AST → automata) pipeline: a :class:`CompileError` concerns the
    backend share that runs at connect/JIT time — an unknown composition
    mode or granularity, a bad cache capacity, a control state out of a
    product's range, an expression codegen cannot emit.

    Also a :class:`ValueError`: these paths historically raised bare
    ``ValueError``s, and callers that caught those keep working.
    """


class RuntimeProtocolError(ReproRuntimeError):
    """Raised on protocol misuse at run time (e.g. port bound twice)."""


class DeadlockError(RuntimeProtocolError):
    """Raised when every registered task is blocked and no transition is enabled.

    ``diagnostic`` holds a multi-line dump of the engine's state at detection
    time (pending vertices per party, region states, recent trace events) —
    see :func:`repro.runtime.trace.render_deadlock_diagnostic`.
    """

    def __init__(self, message: str, diagnostic: str = ""):
        self.diagnostic = diagnostic
        if diagnostic:
            message = f"{message}\n{diagnostic}"
        super().__init__(message)


class PortClosedError(RuntimeProtocolError):
    """Raised by send/recv on a closed port, and delivered to blocked peers."""


class CheckpointError(RuntimeProtocolError):
    """Raised when a protocol checkpoint cannot be taken or restored.

    Checkpoints are only meaningful at *quiescent points* — no pending
    operations, no blocked parties, no closed vertices — and only between
    structurally compatible connector instances (same regions, same buffer
    signature).  Violating either constraint raises this error instead of
    silently corrupting protocol state.
    """


class DurabilityError(RuntimeProtocolError):
    """Raised when durable session state cannot be written or recovered.

    The durable store (:mod:`repro.runtime.durable`) keeps every session's
    checkpoints and write-ahead delivery journal on disk.  This error (and
    its subclasses) covers the failures of that layer: an unreadable state
    directory, a snapshot whose every generation is corrupt, a journal that
    cannot be appended to.  A *torn tail* on the newest journal is not an
    error — it is the expected signature of a crash mid-append and is
    silently truncated during recovery.
    """


class SnapshotCorruptError(DurabilityError):
    """A snapshot file failed its integrity checks: bad magic, a CRC32
    mismatch, undecodable record framing, or a missing end-of-snapshot
    trailer (a torn write).  Recovery quarantines the file (renames it with
    a ``.corrupt`` suffix) and falls back to the previous generation."""


class SchemaVersionError(DurabilityError):
    """A durable file declares a schema version this build does not know.

    Deliberately *not* treated as corruption: the file is intact but from
    the future, so recovery refuses to guess at its layout (and refuses to
    quarantine it) instead of mis-restoring protocol state.
    """

    def __init__(self, path: str, version: object, supported: int):
        self.path = path
        self.version = version
        self.supported = supported
        super().__init__(
            f"{path}: schema version {version!r} is not supported "
            f"(this build reads version <= {supported})"
        )


class ProtocolTimeoutError(RuntimeProtocolError, TimeoutError):
    """Raised when a blocking send/recv exceeds its timeout.

    The timed-out operation is withdrawn from the connector before this is
    raised, so a timeout never leaves a stale pending operation behind.
    Also a :class:`TimeoutError`, so generic timeout handling catches it.
    """

    def __init__(self, vertex: str, timeout: float, kind: str = "operation"):
        self.vertex = vertex
        self.timeout = timeout
        super().__init__(
            f"{kind} on vertex {vertex!r} timed out after {timeout}s"
        )


class StallError(RuntimeProtocolError):
    """The cause recorded when a watchdog quarantines a stalled or
    pathologically slow task: carries the task name and how long it failed
    to make protocol progress while its peers kept firing."""

    def __init__(self, task: str, waited: float, message: str = ""):
        self.task = task
        self.waited = waited
        super().__init__(
            message
            or f"task {task!r} stalled: no protocol progress for {waited:.3f}s "
            "while peers kept firing"
        )


class PeerFailedError(RuntimeProtocolError):
    """Delivered to tasks blocked on a connector when a supervised peer task
    died with an exception: carries the originating task's name and error so
    the survivor fails fast instead of hanging."""

    def __init__(self, task: str, cause: BaseException | None = None, message: str = ""):
        self.task = task
        self.cause = cause
        super().__init__(
            message or f"peer task {task!r} failed: {cause!r}"
        )
