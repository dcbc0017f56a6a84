"""Fig. 13 runner: result structure and rendering (class S, tiny N)."""

from repro.bench.fig13 import render, run_fig13, violations


def test_runs_and_verifies():
    results = run_fig13(
        programs=("cg",), classes=("S",), ns=(2,), repeats=1
    )
    rows = results[("cg", "S")]
    assert len(rows) == 1
    n, t_orig, t_reo, ok = rows[0]
    assert n == 2 and ok
    assert t_orig > 0 and t_reo > 0


def test_render():
    results = run_fig13(programs=("lu",), classes=("S",), ns=(2,))
    text = render(results)
    assert "LU, size S" in text
    assert "original(s)" in text
    assert "OK" in text


# --- the --check claims, on hand-built results -------------------------------

def results(s_ratio=3.0, a_ratio=2.0, ok=True):
    """cg and lu at N = 2 and 4 on classes S then A; times in seconds."""
    return {
        ("cg", "S"): [(2, 1.0, 2.0, True), (4, 1.0, s_ratio, True)],
        ("cg", "A"): [(2, 1.0, 1.5, True), (4, 1.0, a_ratio, True)],
        ("lu", "S"): [(2, 1.0, 2.0, True), (4, 1.0, 2.0, ok)],
    }


def test_conforming_results_have_no_violations():
    assert violations(results()) == []


def test_unverified_run_is_a_violation():
    assert violations(results(ok=False)) == [
        "lu S N=4: Reo-based run did not verify"]


def test_non_amortizing_cg_is_a_violation():
    (line,) = violations(results(a_ratio=4.5))
    assert line.startswith("cg N=4 reo/original does not amortize")


def test_amortization_needs_cg_at_n4_on_two_classes():
    (line,) = violations({("cg", "S"): [(4, 1.0, 2.0, True)]})
    assert line.startswith("amortization needs")
