"""Shared NPB plumbing: problem classes, results, verification, and the
communication kits the two parallel variants run over.

The class ladder S < W < A < B < C keeps NPB's ordering; dimensions are
scaled where a pure-Python/numpy run of the genuine size would not fit a
benchmark time budget (the mapping is recorded per program in
EXPERIMENTS.md).  Verification is self-consistent: every parallel variant
must reproduce the serial oracle's figure of merit to within a tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import queue
import time

from repro.runtime.channels import channel
from repro.runtime.ports import mkports

#: Join timeout for NPB task groups: a protocol bug surfaces as a
#: TimeoutError instead of hanging the benchmark run.
JOIN_TIMEOUT = 600.0


@dataclass(frozen=True)
class ProblemClass:
    """One NPB problem class for one program (sizes are program-specific)."""

    name: str
    params: dict

    def __getitem__(self, key):
        return self.params[key]


@dataclass
class BenchResult:
    """Outcome of one NPB run."""

    program: str
    variant: str  # 'serial' | 'original' | 'reo'
    clazz: str
    nprocs: int
    seconds: float
    value: object  # figure of merit (zeta, residual, counts, ...)
    verified: bool | None = None
    extra: dict = field(default_factory=dict)

    def row(self) -> str:
        v = {True: "OK", False: "FAILED", None: "-"}[self.verified]
        return (
            f"{self.program:>4} {self.clazz} {self.variant:>8} "
            f"N={self.nprocs:<3d} {self.seconds:8.3f}s  verify={v}"
        )


class Timer:
    """Tiny context timer used by every NPB driver."""

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.seconds = time.perf_counter() - self.t0


def block_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Split ``range(n)`` into ``parts`` contiguous blocks (balanced)."""
    base, rem = divmod(n, parts)
    out = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        out.append((start, start + size))
        start += size
    return out


# --------------------------------------------------------------------------
# Library connectors of the Reo-based variants
# --------------------------------------------------------------------------


def make_bcast(n: int, **options):
    """A master-to-slaves broadcast: the library ``Replicator(n)``."""
    from repro.connectors import library

    return library.connector("Replicator", n, **options)


def make_gather(n: int, **options):
    """A slaves-to-master gather: the library ``EarlyAsyncMerger(n)``
    (a fifo1 per slave, then a merger — its large automaton has 2^n states,
    which is what makes the N ≥ 16 cases interesting, §V.C point 3)."""
    from repro.connectors import library

    return library.connector("EarlyAsyncMerger", n, **options)


def make_pipe(**options):
    """A 1-place buffered pipe (neighbour link in pipelines)."""
    from repro.compiler import compile_source

    program = compile_source("Pipe(a;b) = Fifo1(a;b)\n")
    return program.instantiate_connector("Pipe", **options)


# --------------------------------------------------------------------------
# Communication kits: all that the original and Reo-based variants differ in
# --------------------------------------------------------------------------


class _Kit:
    """The synchronization layer of one parallel run.  A program writes its
    wiring and spawn loop once, inside ``with Timer(), kit:``, asking the
    kit for every link; each link is plain callables (``send(msg)``,
    ``recv()``), so the task code cannot tell the variants apart.  On exit
    the kit closes every connector it built; :meth:`stats` then reports one
    ``stats()`` dict per connector in build order, keyed by its role:
    ``"gather"``, ``"bcast"`` or the ``role`` a pipe was given."""

    variant: str

    def __init__(self):
        self.connectors: dict = {}

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        for conn in self.connectors.values():
            conn.close()

    def stats(self) -> dict:
        return {role: conn.stats() for role, conn in self.connectors.items()}

    def fabric(self, n: int) -> list:
        """All-to-all (FT's and SP's transpose): a pipe per ordered pair
        ``i -> j``; per rank a ``(send_to(j, msg), recv_from(j))`` pair."""
        links = {(i, j): self.pipe(f"link{i}-{j}")
                 for i in range(n) for j in range(n) if i != j}
        return [(lambda j, msg, i=i: links[i, j][0](msg),
                 lambda j, i=i: links[j, i][1]()) for i in range(n)]


class OriginalKit(_Kit):
    """Hand-written synchronization (the paper's "original programs"): a
    ``queue.SimpleQueue`` per gather, a Foster–Chandy ``channel()`` per
    pipe, and a broadcast that sends on one channel per receiver.  It
    builds no connector, so it closes nothing and reports ``{}``."""

    variant = "original"

    def gather(self, n: int):
        """Many to one: a ``send`` per sender, and the receiver's ``recv``."""
        results = queue.SimpleQueue()
        return [results.put] * n, results.get

    def bcast(self, n: int):
        """One to many: the sender's ``send``, and a ``recv`` per receiver."""
        links = [channel() for _ in range(n)]

        def send(msg):
            for out, _ in links:
                out.send(msg)

        return send, [inp.recv for _, inp in links]

    def pipe(self, role: str):
        """A point-to-point link: ``(send, recv)``."""
        out, inp = channel()
        return out.send, inp.recv


class ReoKit(_Kit):
    """Generated connectors (the paper's "Reo-based variants"):
    :func:`make_gather`, :func:`make_bcast` and :func:`make_pipe`, each
    given the kit's ``options`` (``composition='aot'|'jit'``,
    ``compiled='off'`` …)."""

    variant = "reo"

    def __init__(self, **options):
        super().__init__()
        self.options = options

    def _connect(self, role: str, conn, n_out: int, n_in: int):
        self.connectors[role] = conn
        outs, ins = mkports(n_out, n_in)
        conn.connect(outs, ins)
        return outs, ins

    def gather(self, n: int):
        outs, ins = self._connect("gather", make_gather(n, **self.options), n, 1)
        return [out.send for out in outs], ins[0].recv

    def bcast(self, n: int):
        outs, ins = self._connect("bcast", make_bcast(n, **self.options), 1, n)
        return outs[0].send, [inp.recv for inp in ins]

    def pipe(self, role: str):
        outs, ins = self._connect(role, make_pipe(**self.options), 1, 1)
        return outs[0].send, ins[0].recv
