"""NPB MG — simplified multigrid kernel (V-cycles on a 2-D Poisson problem).

The genuine MG runs V-cycles on a 3-D grid.  Our scaled analogue keeps the
algorithmic skeleton — damped-Jacobi smoothing, residual restriction by
half-weighting, coarse-grid recursion, prolongation and correction — and the
reference code's parallel shape: the finest grid is row-block distributed
over the slaves (neighbour boundary exchange before every smoothing step);
coarse grids are agglomerated on the master (a standard practice for small
coarse levels), which gathers the fine residual and scatters the correction
once per cycle.

All smoothing is Jacobi (order-independent), so the parallel variants
reproduce the serial oracle bit for bit.
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

OMEGA = 0.8  # Jacobi damping
PRE_SMOOTH = 2
POST_SMOOTH = 2
N_CYCLES = 4
COARSEST = 8  # direct smoothing-only solve below this size

CLASSES: dict[str, ProblemClass] = {
    name: ProblemClass(name, params)
    for name, params in {
        "S": dict(n=64),
        "W": dict(n=128),
        "A": dict(n=192),
        "B": dict(n=256),
        "C": dict(n=384),
    }.items()
}


def make_rhs(clazz: str) -> np.ndarray:
    n = CLASSES[clazz]["n"]
    return randlc_stream(n * n).reshape(n, n) - 0.5


# --------------------------------------------------------------------------
# Grid operators (whole-grid; the serial oracle and the master's coarse work)
# --------------------------------------------------------------------------


def _laplacian(u: np.ndarray) -> np.ndarray:
    """5-point Laplacian with zero (Dirichlet) halo."""
    out = 4.0 * u
    out[1:, :] -= u[:-1, :]
    out[:-1, :] -= u[1:, :]
    out[:, 1:] -= u[:, :-1]
    out[:, :-1] -= u[:, 1:]
    return out


def _smooth(u: np.ndarray, rhs: np.ndarray, sweeps: int) -> np.ndarray:
    for _ in range(sweeps):
        r = rhs - _laplacian(u)
        u = u + (OMEGA / 4.0) * r
    return u


def _restrict(r: np.ndarray) -> np.ndarray:
    """Half-weighting restriction to the 2x-coarser grid (even points)."""
    return r[::2, ::2].copy()


def _prolong(e: np.ndarray, shape) -> np.ndarray:
    """Piecewise-constant prolongation back to the fine grid."""
    out = np.repeat(np.repeat(e, 2, axis=0), 2, axis=1)
    return out[: shape[0], : shape[1]]


def _vcycle(u: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    u = _smooth(u, rhs, PRE_SMOOTH)
    if min(u.shape) <= COARSEST:
        return _smooth(u, rhs, 8)
    residual = rhs - _laplacian(u)
    coarse = _restrict(residual)
    correction = _vcycle(np.zeros_like(coarse), coarse)
    u = u + _prolong(correction, u.shape)
    return _smooth(u, rhs, POST_SMOOTH)


def _figure_of_merit(u: np.ndarray, rhs: np.ndarray) -> tuple[float, float]:
    r = rhs - _laplacian(u)
    return (float(u.sum()), float(np.linalg.norm(r)))


# --------------------------------------------------------------------------
# Serial oracle
# --------------------------------------------------------------------------


def run_serial(clazz: str) -> BenchResult:
    rhs = make_rhs(clazz)
    u = np.zeros_like(rhs)
    with Timer() as t:
        for _ in range(N_CYCLES):
            u = _vcycle(u, rhs)
        value = _figure_of_merit(u, rhs)
    return BenchResult("mg", "serial", clazz, 1, t.seconds, value, True)


_oracle_cache: dict[str, tuple] = {}


def oracle(clazz: str):
    if clazz not in _oracle_cache:
        _oracle_cache[clazz] = run_serial(clazz).value
    return _oracle_cache[clazz]


def _verified(value, clazz: str) -> bool:
    ref = oracle(clazz)
    return abs(value[0] - ref[0]) <= 1e-8 and abs(value[1] - ref[1]) <= 1e-8


# --------------------------------------------------------------------------
# Parallel structure: distributed fine-level work, agglomerated coarse work
# --------------------------------------------------------------------------
#
# The fine grid is split into contiguous row blocks.  A slave's smoothing
# and residual need its neighbours' boundary rows (old values per Jacobi
# sweep), exchanged before each sweep.  Per V-cycle the master gathers the
# fine residual, runs the coarse recursion locally, and scatters the
# correction blocks.


def _block_smooth_step(u, rhs, top, bottom):
    """One damped-Jacobi step on a row block given halo rows."""
    ext = np.vstack([top[None, :], u, bottom[None, :]])
    lap = 4.0 * u
    lap -= ext[:-2, :]
    lap -= ext[2:, :]
    lap[:, 1:] -= u[:, :-1]
    lap[:, :-1] -= u[:, 1:]
    return u + (OMEGA / 4.0) * (rhs - lap)


def _block_residual(u, rhs, top, bottom):
    ext = np.vstack([top[None, :], u, bottom[None, :]])
    lap = 4.0 * u
    lap -= ext[:-2, :]
    lap -= ext[2:, :]
    lap[:, 1:] -= u[:, :-1]
    lap[:, :-1] -= u[:, 1:]
    return rhs - lap


def _slave_mg(rank, rhs_block, exchange, send_master, recv_master):
    """One slave: fine-level smoothing/residual for its row block."""
    u = np.zeros_like(rhs_block)
    zero = np.zeros(rhs_block.shape[1])

    def halo():
        top, bottom = exchange(u[0].copy(), u[-1].copy())
        return (top if top is not None else zero,
                bottom if bottom is not None else zero)

    for _cycle in range(N_CYCLES):
        for _ in range(PRE_SMOOTH):
            top, bottom = halo()
            u = _block_smooth_step(u, rhs_block, top, bottom)
        top, bottom = halo()
        send_master((rank, "residual", _block_residual(u, rhs_block, top, bottom)))
        _tag, correction = recv_master()
        u = u + correction
        for _ in range(POST_SMOOTH):
            top, bottom = halo()
            u = _block_smooth_step(u, rhs_block, top, bottom)
    send_master((rank, "block", u))


def _run_master(clazz, nprocs, gather_recv, scatter_send):
    """Collect residuals, run the coarse-grid work, scatter corrections,
    and assemble the final figure of merit."""
    rhs = make_rhs(clazz)
    n = rhs.shape[0]
    blocks = block_ranges(n, nprocs)
    from repro.npb.is_ import _Inbox

    inbox = _Inbox(gather_recv)
    for _cycle in range(N_CYCLES):
        residual = np.empty_like(rhs)
        for _ in range(nprocs):
            rank, _kind, payload = inbox.expect("residual")
            lo, hi = blocks[rank]
            residual[lo:hi] = payload
        coarse = _restrict(residual)
        correction = _vcycle(np.zeros_like(coarse), coarse)
        fine_corr = _prolong(correction, rhs.shape)
        for rank, (lo, hi) in enumerate(blocks):
            scatter_send(rank, ("correction", fine_corr[lo:hi]))
    u = np.empty_like(rhs)
    for _ in range(nprocs):
        rank, _kind, payload = inbox.expect("block")
        lo, hi = blocks[rank]
        u[lo:hi] = payload
    return _figure_of_merit(u, rhs)


def _make_exchange(rank, nprocs, send_up, recv_up, send_down, recv_down):
    """Boundary exchange closure: returns (top_halo, bottom_halo); edge
    ranks get None for the missing side."""

    def exchange(first_row, last_row):
        # send first row up / last row down, then receive the counterparts;
        # edge ranks skip the missing side.  Buffered (fifo1) links make the
        # symmetric send-then-receive order deadlock-free.
        if send_up is not None:
            send_up(first_row)
        if send_down is not None:
            send_down(last_row)
        top = recv_up() if recv_up is not None else None
        bottom = recv_down() if recv_down is not None else None
        return top, bottom

    return exchange


def _run(kit, clazz: str, nprocs: int) -> BenchResult:
    """Pipes for the halo exchange and the correction scatter, a gather for
    residuals and blocks."""
    rhs = make_rhs(clazz)
    blocks = block_ranges(rhs.shape[0], nprocs)

    with Timer() as t, kit:
        slave_sends, gather_recv = kit.gather(nprocs)
        scatter = [kit.pipe(f"scatter{rank}") for rank in range(nprocs)]
        up = [kit.pipe(f"up{i}") for i in range(nprocs - 1)]  # i+1's first row to i
        down = [kit.pipe(f"down{i}") for i in range(nprocs - 1)]  # i's last row to i+1
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for rank, (lo, hi) in enumerate(blocks):
                exchange = _make_exchange(
                    rank,
                    nprocs,
                    send_up=up[rank - 1][0] if rank > 0 else None,
                    recv_up=down[rank - 1][1] if rank > 0 else None,
                    send_down=down[rank][0] if rank < nprocs - 1 else None,
                    recv_down=up[rank][1] if rank < nprocs - 1 else None,
                )
                g.spawn(
                    _slave_mg, rank, rhs[lo:hi], exchange,
                    slave_sends[rank], scatter[rank][1],
                    name=f"mg-slave-{rank}",
                )
            master = g.spawn(
                _run_master, clazz, nprocs, gather_recv,
                lambda rank, msg: scatter[rank][0](msg),
                name="mg-master",
            )
        value = master.result
    return BenchResult(
        "mg", kit.variant, clazz, nprocs, t.seconds, value,
        _verified(value, clazz), kit.stats(),
    )


def run_original(clazz: str, nprocs: int) -> BenchResult:
    return _run(OriginalKit(), clazz, nprocs)


def run_reo(clazz: str, nprocs: int, **options) -> BenchResult:
    return _run(ReoKit(**options), clazz, nprocs)
