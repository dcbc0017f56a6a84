"""NPB FT: spectral checksums and distributed-transpose correctness."""

import numpy as np
import pytest

from repro.npb import ft
from repro.npb.common import block_ranges


def test_field_and_factor_deterministic():
    assert np.array_equal(ft.make_field("S"), ft.make_field("S"))
    f = ft.evolve_factor("S")
    # unit modulus: the evolution is energy preserving
    assert np.allclose(np.abs(f), 1.0)


def test_iteration_unitary():
    """ortho-normalized FFTs keep the field's energy bounded."""
    u = ft.make_field("S")
    e0 = np.linalg.norm(u)
    for _ in range(4):
        u = ft._iteration(u, ft.evolve_factor("S"))
    assert abs(np.linalg.norm(u) - e0) < 1e-6 * e0


def test_serial_equals_fft2():
    """axis-1 FFTs around transposes == fft2 (the decomposition is exact)."""
    u = ft.make_field("S")
    via_transpose = np.fft.fft(
        np.fft.fft(u, axis=1, norm="ortho").T.copy(), axis=1, norm="ortho"
    ).T.copy()
    direct = np.fft.fft2(u, norm="ortho")
    assert np.allclose(via_transpose, direct, atol=1e-12)


def test_transpose_helper_is_a_transpose():
    """Drive _transpose directly for both ranks: messages exchanged through
    a dict stand-in for the pipes (all sends precede all receives in
    _transpose, so a single-threaded drive works)."""
    n = 8
    blocks = block_ranges(n, 2)
    full = np.arange(n * n, dtype=complex).reshape(n, n)
    sent: dict[tuple, np.ndarray] = {}
    out = {}
    # phase 1: capture both ranks' outgoing chunks
    for rank in range(2):
        lo, hi = blocks[rank]
        block = full[lo:hi]
        for j in range(2):
            if j != rank:
                jlo, jhi = blocks[j]
                sent[(rank, j)] = block[:, jlo:jhi].T.copy()
    # phase 2: run the real helper with pre-filled "pipes"
    for rank in range(2):
        lo, hi = blocks[rank]
        out[rank] = ft._transpose(
            full[lo:hi].copy(), rank, blocks,
            send_to=lambda j, m: None,  # already captured above
            recv_from=lambda j, rank=rank: sent[(j, rank)],
        )
    assembled = np.vstack([out[0], out[1]])
    assert np.array_equal(assembled, full.T)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_original_matches_serial(nprocs):
    r = ft.run_original("S", nprocs)
    assert r.verified, (r.value, ft.oracle("S"))


@pytest.mark.parametrize("nprocs", [2, 4])
def test_reo_matches_serial(nprocs):
    assert ft.run_reo("S", nprocs).verified


def test_reo_partitioned_and_aot():
    assert ft.run_reo("S", 3).verified
    assert ft.run_reo("S", 2, composition="aot").verified
