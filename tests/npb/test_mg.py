"""NPB MG: V-cycle convergence and distributed-variant equality."""

import numpy as np
import pytest

from repro.npb import mg


def test_vcycle_reduces_residual():
    rhs = mg.make_rhs("S")
    u = np.zeros_like(rhs)
    initial = float(np.linalg.norm(rhs))
    norms = []
    for _ in range(mg.N_CYCLES):
        u = mg._vcycle(u, rhs)
        norms.append(float(np.linalg.norm(rhs - mg._laplacian(u))))
    # converges against the initial residual and keeps improving per cycle
    assert norms[-1] < initial * 0.1
    assert norms == sorted(norms, reverse=True)


def test_restrict_prolong_shapes():
    r = np.arange(36.0).reshape(6, 6)
    c = mg._restrict(r)
    assert c.shape == (3, 3)
    p = mg._prolong(c, (6, 6))
    assert p.shape == (6, 6)
    # piecewise-constant: each coarse cell covers a 2x2 fine patch
    assert (p[0:2, 0:2] == c[0, 0]).all()


def test_block_smoothing_matches_whole_grid():
    rhs = mg.make_rhs("S")
    u = np.zeros_like(rhs)
    whole = mg._smooth(u.copy(), rhs, 1)
    mid = 20
    top_halo = np.zeros(rhs.shape[1])
    upper = mg._block_smooth_step(u[:mid], rhs[:mid], top_halo, u[mid])
    lower = mg._block_smooth_step(u[mid:], rhs[mid:], u[mid - 1],
                                  np.zeros(rhs.shape[1]))
    assert np.array_equal(np.vstack([upper, lower]), whole)


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_original_bitwise_matches_serial(nprocs):
    r = mg.run_original("S", nprocs)
    assert r.verified, (r.value, mg.oracle("S"))


@pytest.mark.parametrize("nprocs", [2, 4])
def test_reo_matches_serial(nprocs):
    assert mg.run_reo("S", nprocs).verified


def test_reo_partitioned():
    assert mg.run_reo("S", 3).verified
