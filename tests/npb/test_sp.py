"""NPB SP: tridiagonal line solves, ADI steps, variant equality."""

import numpy as np
import pytest

from repro.npb import sp


def test_tridiag_solver_against_dense():
    """Thomas algorithm vs a dense solve of the same system."""
    n = 16
    rng_rhs = sp.randlc_stream(3 * n).reshape(3, n)
    a = np.zeros((n, n))
    np.fill_diagonal(a, 1.0 + 2.0 * sp.SIGMA)
    for i in range(n - 1):
        a[i, i + 1] = -sp.SIGMA
        a[i + 1, i] = -sp.SIGMA
    x = sp.tridiag_solve_lines(rng_rhs)
    for row in range(3):
        ref = np.linalg.solve(a, rng_rhs[row])
        assert np.allclose(x[row], ref, atol=1e-12)


def test_step_is_stable():
    """Implicit diffusion: the field stays bounded over many steps."""
    u, f = sp.make_init("S")
    zero_f = np.zeros_like(f)
    n0 = np.linalg.norm(u)
    for _ in range(20):
        u = sp._step_rows(u, zero_f)
        u = sp._step_rows(u.T.copy(), zero_f).T.copy()
    assert np.linalg.norm(u) < n0  # pure diffusion contracts


def test_serial_deterministic():
    assert sp.run_serial("S").value == sp.run_serial("S").value


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_original_bitwise_matches_serial(nprocs):
    r = sp.run_original("S", nprocs)
    assert r.verified, (r.value, sp.oracle("S"))


@pytest.mark.parametrize("nprocs", [2, 4])
def test_reo_matches_serial(nprocs):
    assert sp.run_reo("S", nprocs).verified


def test_reo_partitioned_and_aot():
    assert sp.run_reo("S", 3).verified
    assert sp.run_reo("S", 2, composition="aot").verified
