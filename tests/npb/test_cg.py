"""NPB CG: matrix properties, oracle stability, variant equivalence."""

import numpy as np
import pytest

from repro.npb import cg


def test_matrix_spd_and_deterministic():
    a = cg.make_matrix("S")
    assert a.shape == (1400, 1400)
    # symmetric
    assert abs(a - a.T).max() < 1e-12
    # strictly diagonally dominant with positive diagonal -> SPD
    d = a.diagonal()
    off = np.asarray(abs(a).sum(axis=1)).ravel() - abs(d)
    assert (d > off).all()
    assert a is cg.make_matrix("S")  # cached


def test_serial_oracle_reproducible():
    z1 = cg.run_serial("S").value
    z2 = cg.run_serial("S").value
    assert z1 == z2
    # zeta = shift + 1/(x·z) stays in the shift's neighbourhood for this
    # strongly diagonally dominant matrix
    assert abs(z1 - cg.CLASSES["S"]["shift"]) < 5.0


@pytest.mark.parametrize("nprocs", [1, 2, 3, 4])
def test_original_matches_oracle(nprocs):
    r = cg.run_original("S", nprocs)
    assert r.verified, (r.value, cg.oracle("S"))


@pytest.mark.parametrize("nprocs", [1, 2, 4])
def test_reo_matches_oracle(nprocs):
    r = cg.run_reo("S", nprocs)
    assert r.verified


def test_reo_aot_and_partitioned():
    assert cg.run_reo("S", 2, composition="aot").verified
    assert cg.run_reo("S", 3).verified


def test_result_rows_render():
    r = cg.run_original("S", 2)
    row = r.row()
    assert "cg" in row and "original" in row and "OK" in row


def test_classes_ladder():
    nas = [cg.CLASSES[c]["na"] for c in ("S", "W", "A", "B", "C")]
    assert nas == sorted(nas)
    assert len(set(nas)) == 5


@pytest.mark.parametrize("clazz", ["S", "W"])
def test_reo_connector_steps_are_exact(clazz):
    """Fig. 13's ``npb.connector_steps`` at N = 2: cg 1951 a run in either
    class (lu adds 116, tests/npb/test_lu.py)."""
    r = cg.run_reo(clazz, 2)
    assert {k: s["steps"] for k, s in r.extra.items()} == {
        "bcast": 391, "gather": 1560}
