"""NPB LU: SSOR convergence, wavefront-pipeline equivalence."""

import numpy as np
import pytest

from repro.npb import lu


def test_serial_converges():
    r = lu.run_serial("S")
    checksum, last_delta = r.value
    assert np.isfinite(checksum)
    # SOR on a Laplace-like system: update norms shrink over sweeps
    assert last_delta < 100.0


def test_rhs_deterministic():
    assert np.array_equal(lu.make_rhs("S"), lu.make_rhs("S"))


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_original_bitwise_matches_serial(nprocs):
    r = lu.run_original("S", nprocs)
    assert r.verified, (r.value, lu.oracle("S"))


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_reo_matches_serial(nprocs):
    r = lu.run_reo("S", nprocs)
    assert r.verified


def test_reo_partitioned_and_aot():
    assert lu.run_reo("S", 3, use_partitioning=True).verified
    assert lu.run_reo("S", 2, composition="aot").verified


def test_more_procs_than_chunks_still_correct():
    # ny=32, 8 slaves of 4 rows each; nchunks=4
    r = lu.run_original("S", 8)
    assert r.verified


def test_sweep_is_gauss_seidel_vertically():
    """Row j+1's update must see row j's *new* values (the wavefront)."""
    rhs = np.zeros((3, 4))
    u = np.ones((3, 4))
    cols = slice(0, 4)
    bottom, _ = lu._sweep_rows(u, rhs, np.zeros(4), None, cols)
    # with omega=1.2 and zero rhs/boundaries the rows decay in a cascade:
    # each row's new value depends on the (already updated) row above.
    assert not np.allclose(u[0], u[1])
    assert np.array_equal(bottom, u[2])


@pytest.mark.parametrize("clazz", ["S", "W"])
def test_reo_reports_one_stats_dict_per_connector(clazz):
    """``extra`` is what ``cg`` attaches: a plain ``stats()`` dict per
    connector, read after the timer (the frozen suite sums ``steps`` and
    ``expansions`` over its values).  The step counts are exact: every
    value is two steps, into its fifo and out of it."""
    p = lu.CLASSES[clazz]
    r = lu.run_reo(clazz, 2)
    assert r.verified and list(r.extra) == ["gather", "pipe0", "up0"]
    assert {k: s["steps"] for k, s in r.extra.items()} == {
        "gather": 2 * (2 * p["nsweeps"] + 2),  # a delta per sweep, a block
        "pipe0": 2 * p["nchunks"] * p["nsweeps"],  # a bottom row per chunk
        "up0": 2 * p["nsweeps"],  # the old top row, once a sweep
    }
    assert sum(s["steps"] for s in r.extra.values()) == 116
    # a pipe has 2 states; the gather's two fifos are seldom both full
    assert [r.extra[k]["expansions"] for k in ("pipe0", "up0")] == [2, 2]
    assert r.extra["gather"]["expansions"] in (3, 4)
    # read after close(), outside the timer: the tables are freed by then
    assert all(s["compiled_states"] == 0 for s in r.extra.values())


def test_reo_extra_names_every_link():
    r = lu.run_reo("S", 4)
    assert list(r.extra) == [
        "gather", "pipe0", "pipe1", "pipe2", "up0", "up1", "up2"]
