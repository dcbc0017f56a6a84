"""NPB CG — conjugate gradient kernel (master–slaves; paper Fig. 13 left).

The benchmark estimates the largest eigenvalue of a sparse symmetric
positive-definite matrix by inverse power iteration, solving ``A z = x``
with 25 conjugate-gradient steps per outer iteration.  The figure of merit
is ``zeta = shift + 1 / (x·z)`` after ``niter`` outer iterations.

Task topology (as in the NPB reference): a master owns the vectors and the
scalar reductions; each of N slaves owns a contiguous block of matrix rows
and computes its share of every matrix–vector product.  Per inner CG step:
one broadcast of ``p`` to all slaves, one gather of N partial results.

Variants:

* :func:`run_serial` — oracle;
* :func:`run_original` — hand-written synchronization (a Foster–Chandy
  channel per slave plus a shared result queue);
* :func:`run_reo` — the same body over generated connectors: a
  ``Replicator(N)`` for the broadcast and an ``EarlyAsyncMerger(N)`` for
  the gather.

Class sizes: S/W/A are the genuine NPB sizes; B and C are scaled for the
Python substrate (EXPERIMENTS.md records the mapping).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.npb.common import (
    JOIN_TIMEOUT,
    BenchResult,
    OriginalKit,
    ProblemClass,
    ReoKit,
    Timer,
    block_ranges,
)
from repro.npb.randlc import SEED_DEFAULT, randlc_stream
from repro.runtime.tasks import TaskGroup

CGITMAX = 25  # inner CG iterations, as in the NPB spec

CLASSES: dict[str, ProblemClass] = {
    name: ProblemClass(name, params)
    for name, params in {
        # (genuine NPB sizes for S/W/A; B/C scaled: see EXPERIMENTS.md)
        "S": dict(na=1400, nonzer=7, niter=15, shift=10.0),
        "W": dict(na=7000, nonzer=8, niter=15, shift=12.0),
        "A": dict(na=14000, nonzer=11, niter=15, shift=20.0),
        "B": dict(na=30000, nonzer=13, niter=25, shift=60.0),
        "C": dict(na=60000, nonzer=15, niter=25, shift=110.0),
    }.items()
}

_matrix_cache: dict[str, sp.csr_matrix] = {}


def make_matrix(clazz: str) -> sp.csr_matrix:
    """A sparse SPD matrix in the spirit of NPB's ``makea``.

    ``nonzer`` off-diagonal entries per row at randlc-chosen positions with
    randlc values, symmetrized, plus a dominant diagonal (guaranteeing
    positive definiteness).  Deterministic per class.
    """
    if clazz in _matrix_cache:
        return _matrix_cache[clazz]
    p = CLASSES[clazz]
    n, nonzer = p["na"], p["nonzer"]
    stream = randlc_stream(2 * n * nonzer, seed=SEED_DEFAULT)
    cols = np.minimum((stream[: n * nonzer] * n).astype(np.int64), n - 1)
    vals = stream[n * nonzer :]
    rows = np.repeat(np.arange(n, dtype=np.int64), nonzer)
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n))
    a = (m + m.T) * 0.5
    a = a.tocsr()
    # Dominant diagonal: rowsum + 1 makes the matrix strictly diagonally
    # dominant with positive diagonal => SPD.
    rowsum = np.asarray(np.abs(a).sum(axis=1)).ravel()
    a = a + sp.diags(rowsum + 1.0)
    a = a.tocsr()
    _matrix_cache[clazz] = a
    return a


def _cg_inner(matvec, x: np.ndarray) -> tuple[np.ndarray, float]:
    """25 CG steps for ``A z = x``; returns (z, ||x - A z||)."""
    z = np.zeros_like(x)
    r = x.copy()
    p = r.copy()
    rho = float(r @ r)
    for _ in range(CGITMAX):
        q = matvec(p)
        alpha = rho / float(p @ q)
        z += alpha * p
        r -= alpha * q
        rho0, rho = rho, float(r @ r)
        beta = rho / rho0
        p = r + beta * p
    rnorm = float(np.linalg.norm(x - matvec(z)))
    return z, rnorm


def _power_iteration(matvec, n: int, niter: int, shift: float) -> float:
    x = np.ones(n)
    zeta = 0.0
    for _ in range(niter):
        z, _rnorm = _cg_inner(matvec, x)
        zeta = shift + 1.0 / float(x @ z)
        x = z / np.linalg.norm(z)
    return zeta


# --------------------------------------------------------------------------
# Serial oracle
# --------------------------------------------------------------------------


def run_serial(clazz: str) -> BenchResult:
    p = CLASSES[clazz]
    a = make_matrix(clazz)
    with Timer() as t:
        zeta = _power_iteration(lambda v: a @ v, p["na"], p["niter"], p["shift"])
    return BenchResult("cg", "serial", clazz, 1, t.seconds, zeta, True)


_oracle_cache: dict[str, float] = {}


def oracle(clazz: str) -> float:
    if clazz not in _oracle_cache:
        _oracle_cache[clazz] = run_serial(clazz).value
    return _oracle_cache[clazz]


def _verified(zeta: float, clazz: str) -> bool:
    return abs(zeta - oracle(clazz)) <= 1e-8


# --------------------------------------------------------------------------
# Distributed matvec skeleton (shared by both parallel variants)
# --------------------------------------------------------------------------


def _run_master(p, blocks, bcast_send, gather_recv):
    """The master task: power iteration with a distributed matvec."""
    nprocs = len(blocks)

    def matvec(v: np.ndarray) -> np.ndarray:
        bcast_send(("mv", v))
        parts: dict[int, np.ndarray] = {}
        for _ in range(nprocs):
            rank, q = gather_recv()
            parts[rank] = q
        return np.concatenate([parts[i] for i in range(nprocs)])

    zeta = _power_iteration(matvec, p["na"], p["niter"], p["shift"])
    bcast_send(("stop", None))
    return zeta


def _run_slave(rank, a_block, recv, send):
    """A slave task: answer matvec requests for its row block."""
    while True:
        tag, v = recv()
        if tag == "stop":
            return rank
        send((rank, a_block @ v))


# --------------------------------------------------------------------------
# The parallel run, over either variant's communication kit
# --------------------------------------------------------------------------


def _run(kit, clazz: str, nprocs: int) -> BenchResult:
    p = CLASSES[clazz]
    a = make_matrix(clazz)
    blocks = block_ranges(p["na"], nprocs)
    with Timer() as t, kit:
        bcast_send, slave_recvs = kit.bcast(nprocs)
        slave_sends, gather_recv = kit.gather(nprocs)
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for rank, (lo, hi) in enumerate(blocks):
                g.spawn(
                    _run_slave,
                    rank,
                    a[lo:hi],
                    slave_recvs[rank],
                    slave_sends[rank],
                    name=f"cg-slave-{rank}",
                )
            master = g.spawn(
                _run_master, p, blocks, bcast_send, gather_recv, name="cg-master"
            )
        zeta = master.result
    return BenchResult(
        "cg", kit.variant, clazz, nprocs, t.seconds, zeta, _verified(zeta, clazz),
        kit.stats(),
    )


def run_original(clazz: str, nprocs: int) -> BenchResult:
    return _run(OriginalKit(), clazz, nprocs)


def run_reo(clazz: str, nprocs: int, **options) -> BenchResult:
    """``options`` select the compilation/execution strategy
    (``composition='aot'|'jit'``, ``compiled='off'`` …) and are
    forwarded to both connectors."""
    return _run(ReoKit(**options), clazz, nprocs)
