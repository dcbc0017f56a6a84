"""Fig. 12 runner: classification logic and report rendering (tiny runs)."""

from repro.bench.fig12 import (BINS, Fig12Cell, Fig12Report, classify, main,
                               run_fig12, violations)
from repro.bench.harness import ThroughputSample


def s(rate, failed=False):
    sample = ThroughputSample(steps=int(rate), window_s=1.0, setup_s=0.0,
                              failed=failed, failure="X" if failed else "")
    return sample


def test_classify_bins():
    assert classify(s(100), s(0, failed=True)) == "fail"
    assert classify(s(100), s(90)) == "new"
    assert classify(s(100), s(100)) == "new"  # ties go to the new approach
    assert classify(s(100), s(500)) == "ex10"
    assert classify(s(1), s(5000)) == "ex100"


def test_report_counts_and_pie():
    report = run_fig12(
        names=("Replicator", "SequencedMerger"),
        ns=(2, 4),
        window_s=0.05,
        state_budget=20_000,
        compile_time_budget_s=2.0,
    )
    assert len(report.cells) == 4
    counts = report.counts_by_n()
    assert set(counts) == {2, 4}
    assert all(sum(c.values()) == 2 for c in counts.values())
    pie = report.pie()
    assert abs(sum(pie.values()) - 100.0) < 1e-9
    text = report.render(detail=True)
    assert "Bar chart" in text and "Pie chart" in text
    assert "Replicator" in text


def test_existing_fails_at_large_n_for_exponential_connector():
    report = run_fig12(
        names=("EarlyAsyncMerger",),
        ns=(2, 16),
        window_s=0.05,
        state_budget=1000,
        compile_time_budget_s=1.0,
    )
    by_n = {c.n: c for c in report.cells}
    assert not by_n[2].existing.failed
    assert by_n[16].existing.failed
    assert by_n[16].bin == "fail"


def test_bins_constant():
    assert BINS == ("fail", "new", "ex10", "ex100")


# --- the --check claims, on hand-built reports ------------------------------

def cell(n, new=100, existing=100, new_failed=False, existing_failed=False):
    ne, ex = s(new, new_failed), s(existing, existing_failed)
    return Fig12Cell("C", n, ne, ex, classify(ne, ex))


def report(*cells, ns=(2, 4, 8, 16)):
    return Fig12Report(list(cells), ns=ns)


# existing wins at N = 2, new wins at N = 4, existing fails only at N = 16
CONFORMING = (cell(2, existing=500), cell(4, new=200),
              cell(16, existing_failed=True))


def test_conforming_report_has_no_violations():
    assert violations(report(*CONFORMING)) == []


def test_existing_failure_at_small_n_is_a_violation():
    (line,) = violations(report(*CONFORMING, cell(2, existing_failed=True)))
    assert "existing approach failed C/2" in line


def test_new_failure_is_a_violation():
    (line,) = violations(report(*CONFORMING, cell(16, new_failed=True)))
    assert "new approach failed C/16" in line


def test_fewer_failures_at_largest_n_is_a_violation():
    (line,) = violations(report(
        cell(2, existing=500), cell(16, existing_failed=True), cell(32),
        ns=(2, 16, 32)))
    assert "fewer cells at N = 32 (0) than at N = 16 (1)" in line


def test_no_existing_win_is_a_violation():
    (line,) = violations(report(*CONFORMING[1:]))
    assert line == "existing approach wins no cell"


def test_no_new_win_or_existing_failure_is_a_violation():
    (line,) = violations(report(cell(2, existing=500), cell(4, existing=500)))
    assert line == "new approach wins no cell and existing fails none"


def test_check_fails_the_run(capsys):
    """A one-N sweep cannot compare failures across N: --check exits 1."""
    assert main(["--connector", "Replicator", "--ns", "2",
                 "--window", "0.05", "--check"]) == 1
    assert "FAIL: comparing failures across N" in capsys.readouterr().out


def test_detail_shows_each_approach_setup_beside_its_rate():
    """A cell binned on set-up explains itself: ``--detail`` prints each
    approach's ``setup_s`` next to its rate."""
    new = ThroughputSample(steps=122, window_s=1.0, setup_s=0.120)
    existing = ThroughputSample(steps=306_020, window_s=1.0, setup_s=0.004)
    text = Fig12Report(
        [Fig12Cell("FifoChain", 8, new, existing, classify(new, existing))],
        ns=(8,),
    ).render(detail=True)
    header, row = text.splitlines()[-2:]
    assert header.split() == ["connector", "N", "new", "st/s", "setup", "s",
                              "exist", "st/s", "setup", "s", "bin", "note"]
    assert row.split() == ["FifoChain", "8", "122", "0.120", "306020",
                           "0.004", "ex100"]
