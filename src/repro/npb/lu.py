"""NPB LU — pipelined SSOR application (paper Fig. 13 right).

The genuine LU solves the 3-D Navier–Stokes equations with an SSOR scheme
whose lower-triangular sweeps create a *wavefront*: block i of the domain
cannot start a sweep row until block i-1 has produced the adjacent boundary
row.  The NPB reference parallelizes this as a pipeline among the slaves —
"in one of the programs, additionally, the slaves are organized in a
pipeline structure" (§V.C).

Our scaled analogue keeps exactly that computation/communication shape: a
2-D grid solved by successive over-relaxation sweeps that are Gauss–Seidel
*vertically* (row j uses the freshly updated row j-1 — the wavefront) and
Jacobi horizontally (so rows vectorize).  Slaves own contiguous row blocks;
each sweep is pipelined over column chunks: for every chunk, a slave waits
for its top boundary segment from its predecessor, updates its rows for
that chunk, and forwards its bottom boundary segment to its successor.
After every sweep each slave reports its squared update norm to the master
(master–slaves structure), and at the end the slaves ship their blocks back
for the verification checksum.

Variants mirror :mod:`repro.npb.cg`: serial oracle, hand-written channels,
and generated connectors (fifo pipes between neighbours + an
``EarlyAsyncMerger`` gather).
"""

from __future__ import annotations

import numpy as np

from repro.npb.common import (
    JOIN_TIMEOUT,
    BenchResult,
    OriginalKit,
    ProblemClass,
    ReoKit,
    Timer,
    block_ranges,
)
from repro.npb.randlc import randlc_stream
from repro.runtime.tasks import TaskGroup

OMEGA = 1.2  # over-relaxation factor, as in LU's SSOR

CLASSES: dict[str, ProblemClass] = {
    name: ProblemClass(name, params)
    for name, params in {
        "S": dict(nx=32, ny=32, nsweeps=8, nchunks=4),
        "W": dict(nx=64, ny=64, nsweeps=8, nchunks=4),
        "A": dict(nx=96, ny=96, nsweeps=10, nchunks=8),
        "B": dict(nx=160, ny=160, nsweeps=12, nchunks=8),
        "C": dict(nx=256, ny=256, nsweeps=12, nchunks=8),
    }.items()
}


def make_rhs(clazz: str) -> np.ndarray:
    """Deterministic right-hand side from the NPB generator."""
    p = CLASSES[clazz]
    nx, ny = p["nx"], p["ny"]
    return randlc_stream(nx * ny).reshape(ny, nx)


def _chunk_slices(nx: int, nchunks: int) -> list[slice]:
    return [slice(lo, hi) for lo, hi in block_ranges(nx, nchunks)]


def _sweep_rows(
    u: np.ndarray,
    rhs: np.ndarray,
    top: np.ndarray,
    below_row: np.ndarray | None,
    cols: slice,
) -> tuple[np.ndarray, float]:
    """SSOR-update ``u[:, cols]`` for a row block given the freshly updated
    boundary row ``top`` (the wavefront input) and the *pre-sweep* first row
    of the block below (``below_row``, None at the domain edge); returns the
    new bottom boundary segment and the squared update norm contribution."""
    nrows = u.shape[0]
    delta2 = 0.0
    prev = top
    for j in range(nrows):
        row = u[j, cols]
        if j + 1 < nrows:
            below = u[j + 1, cols]
        elif below_row is not None:
            below = below_row[cols]
        else:
            below = np.zeros_like(row)
        left = np.empty_like(row)
        right = np.empty_like(row)
        full = u[j]
        lo = cols.start
        hi = cols.stop
        left[0] = full[lo - 1] if lo > 0 else 0.0
        left[1:] = full[lo : hi - 1]
        right[-1] = full[hi] if hi < u.shape[1] else 0.0
        right[:-1] = full[lo + 1 : hi]
        gs = 0.25 * (prev + below + left + right + rhs[j, cols])
        new = (1.0 - OMEGA) * row + OMEGA * gs
        d = new - row
        delta2 += float(d @ d)
        u[j, cols] = new
        prev = new
    return u[nrows - 1, cols].copy(), delta2


def _run_block(
    u_block: np.ndarray,
    rhs_block: np.ndarray,
    chunks: list[slice],
    nsweeps: int,
    recv_top,
    send_bottom,
    send_up,
    recv_below,
    send_master,
    rank: int,
) -> None:
    """One slave: pipelined SSOR sweeps over its row block.

    Per sweep: publish the pre-sweep first row upward (the neighbour above
    reads it as its old "below" boundary), then run the chunk-pipelined
    wavefront: wait for the freshly updated top boundary per chunk, update,
    forward the bottom boundary.
    """
    for _sweep in range(nsweeps):
        if send_up is not None:
            send_up(u_block[0].copy())
        below_row = recv_below() if recv_below is not None else None
        delta2 = 0.0
        for c, cols in enumerate(chunks):
            top = recv_top(c)
            bottom, d2 = _sweep_rows(u_block, rhs_block, top, below_row, cols)
            send_bottom(c, bottom)
            delta2 += d2
        send_master((rank, "delta", delta2))
    send_master((rank, "block", u_block))


def _zeros_top(chunks):
    return [np.zeros(c.stop - c.start) for c in chunks]


def _figure_of_merit(u: np.ndarray, deltas: list[float]) -> tuple[float, float]:
    return (float(u.sum()), float(np.sqrt(deltas[-1])))


# --------------------------------------------------------------------------
# Serial oracle
# --------------------------------------------------------------------------


def run_serial(clazz: str) -> BenchResult:
    p = CLASSES[clazz]
    rhs = make_rhs(clazz)
    u = np.zeros((p["ny"], p["nx"]))
    chunks = _chunk_slices(p["nx"], p["nchunks"])
    zero_tops = _zeros_top(chunks)
    deltas = []
    with Timer() as t:
        for _ in range(p["nsweeps"]):
            total = 0.0
            for c, cols in enumerate(chunks):
                _, d2 = _sweep_rows(u, rhs, zero_tops[c], None, cols)
                total += d2
            deltas.append(total)
    value = _figure_of_merit(u, deltas)
    return BenchResult("lu", "serial", clazz, 1, t.seconds, value, True)


_oracle_cache: dict[str, tuple[float, float]] = {}


def oracle(clazz: str) -> tuple[float, float]:
    if clazz not in _oracle_cache:
        _oracle_cache[clazz] = run_serial(clazz).value
    return _oracle_cache[clazz]


def _verified(value, clazz: str) -> bool:
    ref = oracle(clazz)
    return abs(value[0] - ref[0]) <= 1e-8 and abs(value[1] - ref[1]) <= 1e-8


# --------------------------------------------------------------------------
# Master: collect per-sweep deltas and final blocks
# --------------------------------------------------------------------------


def _run_master(p, nprocs: int, gather_recv):
    deltas = [0.0] * p["nsweeps"]
    blocks: dict[int, np.ndarray] = {}
    expected = nprocs * p["nsweeps"] + nprocs
    sweep_seen = [0] * p["nsweeps"]
    sweep_idx = [0] * nprocs
    for _ in range(expected):
        rank, kind, payload = gather_recv()
        if kind == "delta":
            s = sweep_idx[rank]
            sweep_idx[rank] += 1
            deltas[s] += payload
            sweep_seen[s] += 1
        else:
            blocks[rank] = payload
    u = np.vstack([blocks[i] for i in range(nprocs)])
    return _figure_of_merit(u, deltas)


# --------------------------------------------------------------------------
# The parallel run, over either variant's communication kit
# --------------------------------------------------------------------------


def _run(kit, clazz: str, nprocs: int) -> BenchResult:
    p = CLASSES[clazz]
    rhs = make_rhs(clazz)
    chunks = _chunk_slices(p["nx"], p["nchunks"])
    blocks = block_ranges(p["ny"], nprocs)
    zero_tops = _zeros_top(chunks)

    with Timer() as t, kit:
        slave_sends, gather_recv = kit.gather(nprocs)
        links = [kit.pipe(f"pipe{i}") for i in range(nprocs - 1)]  # i -> i+1
        uplinks = [kit.pipe(f"up{i}") for i in range(nprocs - 1)]  # i+1 -> i
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for rank, (lo, hi) in enumerate(blocks):
                if rank == 0:
                    recv_top = lambda c: zero_tops[c]
                else:
                    recv = links[rank - 1][1]
                    recv_top = lambda c, recv=recv: recv()
                if rank == nprocs - 1:
                    send_bottom = lambda c, b: None
                else:
                    send = links[rank][0]
                    send_bottom = lambda c, b, send=send: send(b)
                send_up = uplinks[rank - 1][0] if rank > 0 else None
                recv_below = uplinks[rank][1] if rank < nprocs - 1 else None
                g.spawn(
                    _run_block,
                    np.zeros((hi - lo, p["nx"])),
                    rhs[lo:hi],
                    chunks,
                    p["nsweeps"],
                    recv_top,
                    send_bottom,
                    send_up,
                    recv_below,
                    slave_sends[rank],
                    rank,
                    name=f"lu-slave-{rank}",
                )
            master = g.spawn(_run_master, p, nprocs, gather_recv, name="lu-master")
        value = master.result
    return BenchResult(
        "lu", kit.variant, clazz, nprocs, t.seconds, value,
        _verified(value, clazz), kit.stats(),
    )


def run_original(clazz: str, nprocs: int) -> BenchResult:
    return _run(OriginalKit(), clazz, nprocs)


def run_reo(clazz: str, nprocs: int, **options) -> BenchResult:
    return _run(ReoKit(**options), clazz, nprocs)
