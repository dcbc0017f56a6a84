"""NPB EP — the embarrassingly parallel kernel.

Generates pairs of uniform deviates with the NPB generator, maps accepted
pairs through the Marsaglia polar method to Gaussians, and tallies them into
ten annuli by max(|X|, |Y|); the figure of merit is (sum X, sum Y, counts).

Work is split into a fixed number of batches (independent of the task
count), each with an exactly advanced LCG substream, so every variant —
serial, original, Reo-based — produces bit-identical sums regardless of N.
Communication is a single gather at the end, which is precisely why the
paper classifies this kind of workload as overhead-insensitive.
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
)
from repro.npb.randlc import SEED_DEFAULT, lcg_advance, randlc_stream
from repro.runtime.tasks import TaskGroup

N_BATCHES = 64  # fixed batch count => results independent of task count
N_ANNULI = 10

CLASSES: dict[str, ProblemClass] = {
    name: ProblemClass(name, params)
    for name, params in {
        # 2^m pairs (genuine EP uses m = 24..32; scaled for pure Python)
        "S": dict(m=18),
        "W": dict(m=19),
        "A": dict(m=20),
        "B": dict(m=21),
        "C": dict(m=22),
    }.items()
}


def _batch(clazz: str, b: int) -> tuple[float, float, np.ndarray]:
    """Process batch ``b``: (sum_x, sum_y, annulus counts)."""
    pairs_total = 1 << CLASSES[clazz]["m"]
    per_batch = pairs_total // N_BATCHES
    seed = lcg_advance(SEED_DEFAULT, 2 * per_batch * b)
    u = randlc_stream(2 * per_batch, seed=seed)
    x = 2.0 * u[0::2] - 1.0
    y = 2.0 * u[1::2] - 1.0
    t = x * x + y * y
    ok = (t <= 1.0) & (t > 0.0)
    t = t[ok]
    factor = np.sqrt(-2.0 * np.log(t) / t)
    gx = x[ok] * factor
    gy = y[ok] * factor
    annulus = np.minimum(
        np.maximum(np.abs(gx), np.abs(gy)).astype(np.int64), N_ANNULI - 1
    )
    counts = np.bincount(annulus, minlength=N_ANNULI)
    return float(gx.sum()), float(gy.sum()), counts


def _combine(parts) -> tuple[float, float, tuple[int, ...]]:
    sx = sy = 0.0
    counts = np.zeros(N_ANNULI, dtype=np.int64)
    for px, py, pc in parts:
        sx += px
        sy += py
        counts += pc
    return (sx, sy, tuple(int(c) for c in counts))


def run_serial(clazz: str) -> BenchResult:
    with Timer() as t:
        value = _combine(_batch(clazz, b) for b in range(N_BATCHES))
    return BenchResult("ep", "serial", clazz, 1, t.seconds, value, True)


_oracle_cache: dict[str, tuple] = {}


def oracle(clazz: str):
    if clazz not in _oracle_cache:
        _oracle_cache[clazz] = run_serial(clazz).value
    return _oracle_cache[clazz]


def _verified(value, clazz: str) -> bool:
    ref = oracle(clazz)
    return (
        abs(value[0] - ref[0]) <= 1e-9
        and abs(value[1] - ref[1]) <= 1e-9
        and value[2] == ref[2]
    )


def _slave(clazz: str, batches: list[int], send) -> None:
    # ship per-batch results so the master can combine them in canonical
    # batch order: floating-point sums then match the serial oracle exactly,
    # independent of the task count
    send({b: _batch(clazz, b) for b in batches})


def _batches_for(rank: int, nprocs: int) -> list[int]:
    return list(range(rank, N_BATCHES, nprocs))


def _run(kit, clazz: str, nprocs: int) -> BenchResult:
    with Timer() as t, kit:
        slave_sends, gather_recv = kit.gather(nprocs)
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for rank in range(nprocs):
                g.spawn(
                    _slave, clazz, _batches_for(rank, nprocs), slave_sends[rank],
                    name=f"ep-slave-{rank}",
                )
            parts = [gather_recv() for _ in range(nprocs)]
        by_batch = {b: r for part in parts for b, r in part.items()}
        value = _combine(by_batch[b] for b in range(N_BATCHES))
    return BenchResult(
        "ep", kit.variant, clazz, nprocs, t.seconds, value,
        _verified(value, clazz), kit.stats(),
    )


def run_original(clazz: str, nprocs: int) -> BenchResult:
    return _run(OriginalKit(), clazz, nprocs)


def run_reo(clazz: str, nprocs: int, **options) -> BenchResult:
    return _run(ReoKit(**options), clazz, nprocs)
