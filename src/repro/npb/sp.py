"""NPB SP — simplified scalar-pentadiagonal application (ADI line solves).

The genuine SP advances the Navier–Stokes equations with an
Alternating-Direction-Implicit scheme: each time step solves banded linear
systems along every grid line of each axis in turn.  Parallel shape: line
solves are local to one axis; switching axes is the same all-to-all
transpose fabric as FT (the NPB reference codes share this "transpose-based
ADI" structure between SP and BT — at our level of reduction the two
applications coincide, which DESIGN.md records).

Our scaled analogue advances a 2-D implicit heat equation:
``(I + σ L_x)(I + σ L_y) u^{t+1} = u^t + dt·f`` with tridiagonal solves
(Thomas algorithm, vectorized across lines) along x, a transpose, solves
along the new local axis (= y), and a transpose back.  All arithmetic is
line-local and order-independent across lines, so every parallel variant
reproduces the serial oracle bit for bit.
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
from repro.npb.ft import _transpose  # the shared all-to-all transpose
from repro.npb.randlc import randlc_stream
from repro.runtime.tasks import TaskGroup

SIGMA = 0.5  # implicit diffusion coefficient (dt/h^2 lumped)

CLASSES: dict[str, ProblemClass] = {
    name: ProblemClass(name, params)
    for name, params in {
        "S": dict(n=64, nsteps=4),
        "W": dict(n=128, nsteps=4),
        "A": dict(n=192, nsteps=5),
        "B": dict(n=256, nsteps=6),
        "C": dict(n=384, nsteps=6),
    }.items()
}


def make_init(clazz: str) -> tuple[np.ndarray, np.ndarray]:
    n = CLASSES[clazz]["n"]
    stream = randlc_stream(2 * n * n)
    u0 = stream[: n * n].reshape(n, n)
    f = stream[n * n :].reshape(n, n) - 0.5
    return u0, f


def tridiag_solve_lines(rhs: np.ndarray) -> np.ndarray:
    """Solve ``(I + σ L) x = rhs`` along axis 1 for every row of ``rhs``.

    ``L`` is the 1-D Dirichlet Laplacian (diag 2, off-diag -1), so the
    system matrix is tridiagonal with diagonal ``1 + 2σ`` and off-diagonals
    ``-σ`` — solved by the Thomas algorithm, vectorized over the rows.
    """
    n = rhs.shape[1]
    a = -SIGMA  # sub-diagonal
    b = 1.0 + 2.0 * SIGMA  # diagonal
    c = -SIGMA  # super-diagonal
    cp = np.empty(n)
    x = rhs.copy()
    # forward sweep (coefficients are row-independent: precompute cp, and
    # apply the rhs updates vectorized across rows)
    cp[0] = c / b
    denom = np.empty(n)
    denom[0] = b
    for i in range(1, n):
        denom[i] = b - a * cp[i - 1]
        cp[i] = c / denom[i]
    x[:, 0] = x[:, 0] / denom[0]
    for i in range(1, n):
        x[:, i] = (x[:, i] - a * x[:, i - 1]) / denom[i]
    # back substitution
    for i in range(n - 2, -1, -1):
        x[:, i] = x[:, i] - cp[i] * x[:, i + 1]
    return x


def _step_rows(u: np.ndarray, f: np.ndarray) -> np.ndarray:
    """The x-direction half step on a row block (line solves along axis 1)."""
    return tridiag_solve_lines(u + f)


def _figure_of_merit(u: np.ndarray) -> tuple[float, float]:
    return (float(u.sum()), float(np.linalg.norm(u)))


# --------------------------------------------------------------------------
# Serial oracle (same transpose decomposition as the parallel variants)
# --------------------------------------------------------------------------


def run_serial(clazz: str) -> BenchResult:
    p = CLASSES[clazz]
    u, f = make_init(clazz)
    fT = f.T.copy()
    with Timer() as t:
        for _ in range(p["nsteps"]):
            u = _step_rows(u, f)  # x half-step
            u = u.T.copy()
            u = _step_rows(u, fT)  # y half-step (in transposed layout)
            u = u.T.copy()
        value = _figure_of_merit(u)
    return BenchResult("sp", "serial", clazz, 1, t.seconds, value, True)


_oracle_cache: dict[str, tuple] = {}


def oracle(clazz: str):
    if clazz not in _oracle_cache:
        _oracle_cache[clazz] = run_serial(clazz).value
    return _oracle_cache[clazz]


def _verified(value, clazz: str) -> bool:
    ref = oracle(clazz)
    return abs(value[0] - ref[0]) <= 1e-8 and abs(value[1] - ref[1]) <= 1e-8


# --------------------------------------------------------------------------
# Parallel structure
# --------------------------------------------------------------------------


def _slave_sp(rank, clazz, blocks, send_to, recv_from, send_master):
    p = CLASSES[clazz]
    lo, hi = blocks[rank]
    u_full, f_full = make_init(clazz)
    u = u_full[lo:hi].copy()
    f = f_full[lo:hi]
    fT = f_full.T[lo:hi]
    for _ in range(p["nsteps"]):
        u = _step_rows(u, f)
        u = _transpose(u, rank, blocks, send_to, recv_from)
        u = _step_rows(u, fT)
        u = _transpose(u, rank, blocks, send_to, recv_from)
    send_master((rank, "block", u))


def _master_sp(clazz, nprocs, gather_recv):
    n = CLASSES[clazz]["n"]
    blocks = block_ranges(n, nprocs)
    u = np.empty((n, n))
    for _ in range(nprocs):
        rank, _kind, payload = gather_recv()
        lo, hi = blocks[rank]
        u[lo:hi] = payload
    return _figure_of_merit(u)


def _run(kit, clazz: str, nprocs: int) -> BenchResult:
    p = CLASSES[clazz]
    blocks = block_ranges(p["n"], nprocs)
    with Timer() as t, kit:
        slave_sends, gather_recv = kit.gather(nprocs)
        fabric = kit.fabric(nprocs)
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for rank, (send_to, recv_from) in enumerate(fabric):
                g.spawn(
                    _slave_sp, rank, clazz, blocks, send_to, recv_from,
                    slave_sends[rank], name=f"sp-slave-{rank}",
                )
            master = g.spawn(
                _master_sp, clazz, nprocs, gather_recv, name="sp-master"
            )
        value = master.result
    return BenchResult(
        "sp", kit.variant, clazz, nprocs, t.seconds, value,
        _verified(value, clazz), kit.stats(),
    )


def run_original(clazz: str, nprocs: int) -> BenchResult:
    return _run(OriginalKit(), clazz, nprocs)


def run_reo(clazz: str, nprocs: int, **options) -> BenchResult:
    return _run(ReoKit(**options), clazz, nprocs)
