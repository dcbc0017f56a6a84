"""NPB IS — the integer sort kernel (key ranking by bucket counting).

Keys are uniform integers from the NPB generator.  Like the reference IS,
we *rank* keys rather than physically permuting them: each task histograms
its key block, the master reduces the histograms into global bucket
offsets, sends each task its per-bucket starting offsets (global prefix plus
the counts of preceding blocks), and each task computes the ranks of its
keys.  The figure of merit is a checksum of all ranks plus the global
histogram; the checksum is weighted by *global* key indices, so per-block
contributions sum exactly to the serial value.

Per repetition this costs one gather + one scatter — a bursty
communication pattern distinct from CG's per-iteration cadence.
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

N_REPS = 5  # ranking repetitions (NPB IS does 10)

CLASSES: dict[str, ProblemClass] = {
    name: ProblemClass(name, params)
    for name, params in {
        "S": dict(n=1 << 14, bmax=1 << 10),
        "W": dict(n=1 << 16, bmax=1 << 12),
        "A": dict(n=1 << 18, bmax=1 << 14),
        "B": dict(n=1 << 19, bmax=1 << 15),
        "C": dict(n=1 << 20, bmax=1 << 16),
    }.items()
}

_keys_cache: dict[str, np.ndarray] = {}


def make_keys(clazz: str) -> np.ndarray:
    if clazz not in _keys_cache:
        p = CLASSES[clazz]
        u = randlc_stream(p["n"])
        _keys_cache[clazz] = np.minimum(
            (u * p["bmax"]).astype(np.int64), p["bmax"] - 1
        )
    return _keys_cache[clazz]


def _rank_block(keys: np.ndarray, start_offsets: np.ndarray) -> np.ndarray:
    """Rank each key given its block's per-bucket starting offsets.

    Equal keys within the block are ranked in order of appearance; the
    offsets already account for all equal keys in lower-numbered blocks.
    """
    order = np.argsort(keys, kind="stable")
    ranks = np.empty_like(keys)
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
    run_starts = np.concatenate(([0], boundaries))
    run_ids = np.searchsorted(run_starts, np.arange(len(keys)), side="right") - 1
    within = np.arange(len(keys)) - run_starts[run_ids]
    ranks[order] = start_offsets[sorted_keys] + within
    return ranks


def _checksum(ranks: np.ndarray, idx0: int) -> int:
    """Order-independent rank checksum weighted by *global* key index, so
    block checksums add up exactly to the whole-array checksum."""
    idx = np.arange(idx0, idx0 + len(ranks), dtype=np.int64)
    return int(((ranks + 1) * ((idx % 1009) + 1)).sum())


def _serial_value(clazz: str) -> tuple[int, int]:
    p = CLASSES[clazz]
    keys = make_keys(clazz)
    hist = np.bincount(keys, minlength=p["bmax"])
    offsets = np.concatenate(([0], np.cumsum(hist)[:-1]))
    total = 0
    for _ in range(N_REPS):
        ranks = _rank_block(keys, offsets.copy())
        total ^= _checksum(ranks, 0)
    return (total, int(hist @ np.arange(p["bmax"]) % (1 << 31)))


def run_serial(clazz: str) -> BenchResult:
    with Timer() as t:
        value = _serial_value(clazz)
    return BenchResult("is", "serial", clazz, 1, t.seconds, value, True)


_oracle_cache: dict[str, tuple] = {}


def oracle(clazz: str):
    if clazz not in _oracle_cache:
        _oracle_cache[clazz] = run_serial(clazz).value
    return _oracle_cache[clazz]


def _verified(value, clazz: str) -> bool:
    return value == oracle(clazz)


# --------------------------------------------------------------------------
# Parallel structure
# --------------------------------------------------------------------------


def _slave(rank, keys_block, idx0, bmax, recv, send) -> None:
    hist = np.bincount(keys_block, minlength=bmax)
    for _ in range(N_REPS):
        send((rank, "hist", hist))
        _tag, offsets = recv()
        ranks = _rank_block(keys_block, offsets)
        send((rank, "checksum", _checksum(ranks, idx0)))


class _Inbox:
    """Kind-matching receive buffer: the merger delivers slave messages in
    nondeterministic order, and a fast slave's next-repetition histogram can
    overtake a slow slave's checksum."""

    def __init__(self, recv):
        self.recv = recv
        self.pending: list = []

    def expect(self, kind: str):
        for i, msg in enumerate(self.pending):
            if msg[1] == kind:
                return self.pending.pop(i)
        while True:
            msg = self.recv()
            if msg[1] == kind:
                return msg
            self.pending.append(msg)


def _master(p, nprocs, gather_recv, scatter_send) -> tuple[int, int]:
    """Reduce histograms, scatter per-block offsets, combine checksums."""
    bmax = p["bmax"]
    inbox = _Inbox(gather_recv)
    total = 0
    global_hist = np.zeros(bmax, dtype=np.int64)
    for _rep in range(N_REPS):
        hists: dict[int, np.ndarray] = {}
        for _ in range(nprocs):
            rank, _kind, payload = inbox.expect("hist")
            hists[rank] = payload
        global_hist = sum(hists.values())
        global_offsets = np.concatenate(([0], np.cumsum(global_hist)[:-1]))
        running = global_offsets.copy()
        for rank in range(nprocs):
            scatter_send(rank, ("offsets", running.copy()))
            running = running + hists[rank]
        rep_sum = 0
        for _ in range(nprocs):
            _rank, _kind, payload = inbox.expect("checksum")
            rep_sum += payload
        total ^= rep_sum
    hist_sig = int(global_hist @ np.arange(bmax) % (1 << 31))
    return (total, hist_sig)


def _run(kit, clazz: str, nprocs: int) -> BenchResult:
    """The offset scatter is a pipe per slave: offsets differ per slave, so
    a broadcast does not fit."""
    p = CLASSES[clazz]
    keys = make_keys(clazz)
    blocks = block_ranges(p["n"], nprocs)

    with Timer() as t, kit:
        slave_sends, gather_recv = kit.gather(nprocs)
        scatter = [kit.pipe(f"scatter{rank}") for rank in range(nprocs)]
        with TaskGroup(join_timeout=JOIN_TIMEOUT) as g:
            for rank, (lo, hi) in enumerate(blocks):
                g.spawn(
                    _slave, rank, keys[lo:hi], lo, p["bmax"],
                    scatter[rank][1], slave_sends[rank],
                    name=f"is-slave-{rank}",
                )
            master = g.spawn(
                _master, p, nprocs, gather_recv,
                lambda rank, msg: scatter[rank][0](msg),
                name="is-master",
            )
        value = master.result
    return BenchResult(
        "is", kit.variant, clazz, nprocs, t.seconds, value,
        _verified(value, clazz), kit.stats(),
    )


def run_original(clazz: str, nprocs: int) -> BenchResult:
    return _run(OriginalKit(), clazz, nprocs)


def run_reo(clazz: str, nprocs: int, **options) -> BenchResult:
    return _run(ReoKit(**options), clazz, nprocs)
