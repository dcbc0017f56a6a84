"""NPB FT — spectral kernel (FFTs with a distributed transpose).

The genuine FT evolves a 3-D field in spectral space: forward FFT, repeated
point-wise evolution, checksums.  Its defining parallel ingredient is the
*transpose algorithm*: FFTs are always local to one axis, and moving to the
next axis is an all-to-all block exchange among the tasks — a communication
pattern (everyone talks to everyone, every iteration) that none of the
other kernels has.

Our scaled analogue keeps exactly that: a 2-D complex field, row-block
distributed.  Per iteration: FFT along the local axis, all-to-all
transpose, FFT along the (new) local axis, transpose back, point-wise
evolution, and a strided checksum gathered to the master in rank order
(so every variant is bit-identical to the serial oracle).

Variants as elsewhere: serial oracle, hand-written channels (a queue per
ordered task pair), and Reo-based (a generated fifo pipe per ordered pair
plus an ``EarlyAsyncMerger`` gather for the checksums).
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

N_CHECK = 256  # strided checksum elements, as in NPB's spirit

CLASSES: dict[str, ProblemClass] = {
    name: ProblemClass(name, params)
    for name, params in {
        "S": dict(n=64, niter=4),
        "W": dict(n=128, niter=4),
        "A": dict(n=192, niter=5),
        "B": dict(n=256, niter=6),
        "C": dict(n=384, niter=6),
    }.items()
}


def make_field(clazz: str) -> np.ndarray:
    """Deterministic complex start field from the NPB generator."""
    n = CLASSES[clazz]["n"]
    u = randlc_stream(2 * n * n)
    return (u[0::2] + 1j * u[1::2]).reshape(n, n)


def evolve_factor(clazz: str) -> np.ndarray:
    """Point-wise spectral evolution factor (unit modulus, deterministic)."""
    n = CLASSES[clazz]["n"]
    kx = np.arange(n)[:, None]
    ky = np.arange(n)[None, :]
    phase = 2.0 * np.pi * ((kx * kx + ky * ky) % 97) / 97.0
    return np.exp(1j * 1e-3 * phase)


def _checksum_rows(u_rows: np.ndarray, lo: int, n: int) -> complex:
    """Contribution of rows [lo, lo+len) to the strided checksum."""
    total = 0.0 + 0.0j
    for k in range(N_CHECK):
        r = (3 * k) % n
        c = (5 * k) % n
        if lo <= r < lo + u_rows.shape[0]:
            total += u_rows[r - lo, c]
    return complex(total)


# --------------------------------------------------------------------------
# Serial oracle (same decomposition as the parallel variants: axis-1 FFTs
# around explicit transposes, so the arithmetic matches bit for bit)
# --------------------------------------------------------------------------


def _iteration(u: np.ndarray, factor: np.ndarray) -> np.ndarray:
    u = np.fft.fft(u, axis=1, norm="ortho")
    u = u.T.copy()
    u = np.fft.fft(u, axis=1, norm="ortho")
    u = u.T.copy()
    return u * factor


def run_serial(clazz: str) -> BenchResult:
    p = CLASSES[clazz]
    u = make_field(clazz)
    factor = evolve_factor(clazz)
    checksums = []
    with Timer() as t:
        for _ in range(p["niter"]):
            u = _iteration(u, factor)
            checksums.append(_checksum_rows(u, 0, p["n"]))
    return BenchResult("ft", "serial", clazz, 1, t.seconds, tuple(checksums), True)


_oracle_cache: dict[str, tuple] = {}


def oracle(clazz: str):
    if clazz not in _oracle_cache:
        _oracle_cache[clazz] = run_serial(clazz).value
    return _oracle_cache[clazz]


def _verified(value, clazz: str) -> bool:
    ref = oracle(clazz)
    return len(value) == len(ref) and all(
        abs(a - b) <= 1e-9 * max(1.0, abs(b)) for a, b in zip(value, ref)
    )


# --------------------------------------------------------------------------
# Parallel structure
# --------------------------------------------------------------------------


def _transpose(block: np.ndarray, rank: int, blocks, send_to, recv_from):
    """All-to-all transpose of a row block.

    ``block`` holds rows [lo, hi) of the current layout.  Every task sends
    task j the (transposed) chunk destined for j's rows in the new layout,
    then assembles its own new block.  Deterministic reassembly: chunks are
    placed by sender rank, so message order does not matter.
    """
    nprocs = len(blocks)
    lo, hi = blocks[rank]
    n = block.shape[1]
    new_block = np.empty((hi - lo, n), dtype=block.dtype)
    # own diagonal chunk
    new_block[:, lo:hi] = block[:, lo:hi].T
    for j in range(nprocs):
        if j == rank:
            continue
        jlo, jhi = blocks[j]
        send_to(j, block[:, jlo:jhi].T.copy())  # becomes j's rows, our cols
    for j in range(nprocs):
        if j == rank:
            continue
        jlo, jhi = blocks[j]
        new_block[:, jlo:jhi] = recv_from(j)
    return new_block


def _slave_ft(rank, clazz, blocks, send_to, recv_from, send_master):
    p = CLASSES[clazz]
    n = p["n"]
    lo, hi = blocks[rank]
    u = make_field(clazz)[lo:hi]
    factor = evolve_factor(clazz)[lo:hi]
    for _ in range(p["niter"]):
        u = np.fft.fft(u, axis=1, norm="ortho")
        u = _transpose(u, rank, blocks, send_to, recv_from)
        u = np.fft.fft(u, axis=1, norm="ortho")
        u = _transpose(u, rank, blocks, send_to, recv_from)
        u = u * factor
        send_master((rank, "checksum", _checksum_rows(u, lo, n)))


def _master_ft(clazz, nprocs, gather_recv):
    from collections import deque

    p = CLASSES[clazz]
    # Per-rank FIFO buckets: a fast slave's next-iteration checksum may
    # arrive while slower slaves still owe the current one.
    pending = {r: deque() for r in range(nprocs)}
    checksums = []
    for _ in range(p["niter"]):
        while any(not q for q in pending.values()):
            rank, _kind, payload = gather_recv()
            pending[rank].append(payload)
        # rank-ordered summation: bit-identical to the serial stride loop,
        # which also visits rows in increasing order
        checksums.append(
            complex(sum(pending[r].popleft() for r in range(nprocs)))
        )
    return tuple(checksums)


def _run(kit, clazz: str, nprocs: int) -> BenchResult:
    p = CLASSES[clazz]
    blocks = block_ranges(p["n"], nprocs)
    with Timer() as t, kit:
        slave_sends, gather_recv = kit.gather(nprocs)
        fabric = kit.fabric(nprocs)
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for rank, (send_to, recv_from) in enumerate(fabric):
                g.spawn(
                    _slave_ft, rank, clazz, blocks, send_to, recv_from,
                    slave_sends[rank], name=f"ft-slave-{rank}",
                )
            master = g.spawn(
                _master_ft, clazz, nprocs, gather_recv, name="ft-master"
            )
        value = master.result
    return BenchResult(
        "ft", kit.variant, clazz, nprocs, t.seconds, value,
        _verified(value, clazz), kit.stats(),
    )


def run_original(clazz: str, nprocs: int) -> BenchResult:
    return _run(OriginalKit(), clazz, nprocs)


def run_reo(clazz: str, nprocs: int, **options) -> BenchResult:
    return _run(ReoKit(**options), clazz, nprocs)
