"""``benchmarks/record.py --check``: each gate's ratios on synthetic readings.

Every gate compares two paths measured in the same process and rounds.
Here each one is fed the readings of the code as it is (no ratio over its
bound) and of the regression it was written to catch (the named ratio
over it), the way ``test_fig12.py`` feeds ``violations()``.  Nothing is
timed.
"""

import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def record():
    spec = importlib.util.spec_from_file_location(
        "record", ROOT / "benchmarks" / "record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def over(ratios):
    return {(r.row, r.what) for r in ratios if r.value > r.bound}


def test_single_region(record):
    """Dev-box readings: the code as it is, and a drain loop spinning 40
    iterations per fired step."""
    ok = {("regions/1", "ref_units"): [2.45, 2.8, 2.65]}
    assert over(record.single_region_ratios(ok)) == set()
    slower = {("regions/1", "ref_units"): [3.31, 3.53, 3.4]}
    assert over(record.single_region_ratios(slower)) == {
        ("regions/1", "ns/step in reference units")}


def test_fig12_steps(record):
    """Dev-box medians per row, in reference units: the code as it is, and
    every emitted step calling ``_plan_for`` on each fire."""
    now = dict(zip(record.FIG12_STEPS_ROWS,
                   (1.35, 2.39, 1.25, 1.47, 1.22, 1.22, 1.17, 1.18)))
    planning = dict(zip(record.FIG12_STEPS_ROWS,
                        (2.10, 3.15, 2.05, 2.25, 1.97, 1.99, 1.90, 1.97)))
    for readings, failing in ((now, set()), (planning, {
            ("fig12", "firing ns/step in reference units, geomean")})):
        best = {(key, "ref_units"): [0.97 * x, x, 1.02 * x]
                for key, x in readings.items()}
        assert over(record.fig12_steps_ratios(best)) == failing


def test_reinstantiate(record):
    ok = {(key, "warm_over_cold"): [0.2 if key == "Pipe/1" else 0.13]
          for key in record.REINSTANTIATE_ROWS}
    assert over(record.reinstantiate_ratios(ok)) == set()
    rederived = dict(ok)
    rederived["EarlyAsyncMerger/8", "warm_over_cold"] = [0.97, 1.02, 1.0]
    assert over(record.reinstantiate_ratios(rederived)) == {
        ("EarlyAsyncMerger/8", "second ÷ first instance")}


#: Medians read on the dev box (growth, N = 2 in reference units) and, for
#: growth, at commit dd05988, where every drain iteration hashed the
#: control state.
LOCKSTEP_NOW = {
    "Sequencer": (0.91, 4.5), "SequencedMerger": (0.97, 3.9),
    "EarlyAsyncMerger": (1.9, 4.6), "Barrier": (6.3, 11.5),
    "Replicator": (4.2, 9.2), "Merger": (None, 8.7),
}
LOCKSTEP_HASHING = {"Sequencer": 1.24, "SequencedMerger": 1.21,
                    "EarlyAsyncMerger": 2.28, "Barrier": 9.20,
                    "Replicator": 5.44}


def lockstep_readings(growth=None, slowdown=1.0):
    best = {}
    for family, (now, units) in LOCKSTEP_NOW.items():
        best[family, "ref_units"] = [slowdown * units]
        if now is not None:
            best[family, "growth"] = [(growth or {}).get(family, now)]
    return best


def test_lockstep_scaling_holds_every_row(record):
    ratios = record.lockstep_ratios(lockstep_readings())
    assert over(ratios) == set()
    # every family's N = 16 row against its N = 2 row, every N = 2 row and
    # Merger/2 against the reference loop
    assert {(r.row, r.what) for r in ratios} == {
        (family, "N = 16 ÷ N = 2") for family in LOCKSTEP_HASHING
    } | {(family, "N = 2 µs/step in reference units")
         for family in LOCKSTEP_NOW}


def test_lockstep_scaling_fails_a_drain_that_hashes_its_state(record):
    ratios = record.lockstep_ratios(lockstep_readings(LOCKSTEP_HASHING))
    assert over(ratios) == {(family, "N = 16 ÷ N = 2")
                            for family in LOCKSTEP_HASHING}


def test_lockstep_scaling_fails_a_slower_kernel_step(record):
    ratios = record.lockstep_ratios(lockstep_readings(slowdown=1.3))
    assert over(ratios) == {(family, "N = 2 µs/step in reference units")
                            for family in LOCKSTEP_NOW}


def test_port_pair(record):
    ok = {(key, "port_over_post"): [0.97, 1.01, 1.03]
          for key in record.PORT_PAIR_ROWS}
    assert over(record.port_pair_ratios(ok)) == set()
    per_call = dict(ok)
    per_call["FifoChain/1", "port_over_post"] = [1.28, 1.25, 1.3]
    assert over(record.port_pair_ratios(per_call)) == {
        ("FifoChain/1", "port ÷ post")}


def test_expansion(record):
    ok = {}
    for key in record.EXPANSION_ROWS:
        ok[key, "flat_us"], ok[key, "merged_us"] = 30.0, 15.0
        ok[key, "delta_us"] = 9.0
    assert over(record.expansion_ratios(ok)) == set()
    flat = dict(ok)
    flat["LateAsyncRouter/16", "merged_us"] = 29.0
    flat["LateAsyncRouter/16", "delta_us"] = 12.0  # 0.41 × merged
    assert over(record.expansion_ratios(flat)) == {
        ("LateAsyncRouter/16", "merged ÷ flat")}
    full = dict(ok)
    full["EarlyAsyncMerger/16", "delta_us"] = 14.0
    assert over(record.expansion_ratios(full)) == {
        ("EarlyAsyncMerger/16", "delta ÷ merged")}
    # EarlyAsyncBarrierMerger/8's worst reading, and every segment
    # composed anew (``came`` ignored)
    worst = dict(ok)
    worst["EarlyAsyncBarrierMerger/8", "delta_us"] = 15.0 * 0.72
    assert over(record.expansion_ratios(worst)) == set()
    worst["EarlyAsyncBarrierMerger/8", "delta_us"] = 15.0 * 0.99
    assert over(record.expansion_ratios(worst)) == {
        ("EarlyAsyncBarrierMerger/8", "delta ÷ merged")}


def test_row_build(record):
    """Dev-box medians: the change, by-value ``_plans`` put back, and the
    parent's plan finding (by value, no kept hash)."""
    def readings(eam, eabm):
        return {(key, "cold_over_at_hand"): [
            {"EarlyAsyncMerger/16": eam,
             "EarlyAsyncBarrierMerger/8": eabm}.get(key, 1.3)]
            for key in record.ROW_BUILD_ROWS}

    assert over(record.row_build_ratios(readings(1.28, 1.16))) == set()
    assert over(record.row_build_ratios(readings(1.39, 1.20))) == {
        ("EarlyAsyncMerger/16", "cold ÷ plans-at-hand row")}
    assert over(record.row_build_ratios(readings(1.95, 1.40))) == {
        (key, "cold ÷ plans-at-hand row")
        for key in ("EarlyAsyncMerger/16", "EarlyAsyncBarrierMerger/8")}
    # the other two rows are recorded, not gated
    assert over(record.row_build_ratios(
        {(key, "cold_over_at_hand"): [9.0]
         for key in record.ROW_BUILD_ROWS})) == {
        (key, "cold ÷ plans-at-hand row")
        for key in ("EarlyAsyncMerger/16", "EarlyAsyncBarrierMerger/8")}


def test_template_build(record):
    ok = {("FifoChain/8", "over_reference"): [3.87, 4.07, 3.96]}
    assert over(record.template_build_ratios(ok)) == set()
    # the maximal enumeration walking every state's whole choice tree
    per_state = {("FifoChain/8", "over_reference"): [8.91, 9.52, 9.05]}
    assert over(record.template_build_ratios(per_state)) == {
        ("FifoChain/8", "build ÷ EarlyAsyncMerger/8's")}


def fake_gate(record, monkeypatch, readings):
    """A gate ``fake`` with rows a and b whose passes hand out
    ``readings[row]`` one per pass; ratios bound at 1.0."""
    passes = []

    def measure(rows, best):
        passes.append(list(rows))
        for row in rows:
            best[row, "x"] = [readings[row].pop(0)]

    def ratios(best):
        return [record.Ratio(row, "x", best[row, "x"][0], 1.0, "hint")
                for row in ("a", "b")]

    monkeypatch.setitem(record.GATES, "fake",
                        (measure, ratios, ("a", "b"), 1))
    return passes


def test_a_gate_measures_again_only_the_rows_over_their_bound(
        record, monkeypatch, capsys):
    passes = fake_gate(record, monkeypatch,
                       {"a": [0.9], "b": [1.4, 1.2, 0.95]})
    assert record.check_gate("fake") == 0
    assert passes == [["a", "b"], ["b"], ["b"]]
    assert "FAIL" not in capsys.readouterr().out


def test_a_gate_gives_up_after_three_more_passes(record, monkeypatch, capsys):
    passes = fake_gate(record, monkeypatch,
                       {"a": [0.9], "b": [1.4, 1.3, 1.2, 1.1]})
    assert record.check_gate("fake") == 1
    assert passes == [["a", "b"], ["b"], ["b"], ["b"]]
    assert capsys.readouterr().out.splitlines()[-1] == (
        "FAIL: fake: b x 1.10 over 1.00 — hint")


def test_no_gate_carries_a_figure_from_another_run(
        record, monkeypatch, capsys):
    """``--check`` runs every gate and reads no file: with each gate faked
    it passes while BENCH_engine.json cannot be read."""
    names = set(vars(record))
    assert not {n for n in names if n.endswith(("_PARENT_US", "_HOST"))}

    def unreadable(*args, **kwargs):
        raise OSError("no file may be read")

    for name in ("open", "read_text", "read_bytes"):
        monkeypatch.setattr(pathlib.Path, name, unreadable)
    monkeypatch.setattr("builtins.open", unreadable)
    ran = []
    for gate in list(record.GATES):
        monkeypatch.setitem(record.GATES, gate, (
            lambda rows, best, gate=gate: ran.append(gate),
            lambda best: [record.Ratio("r", "x", 0.5, 1.0, "hint")],
            ("r",), 1))
    assert record.main(["--check"]) == 0
    assert ran == list(record.GATES)
    assert capsys.readouterr().out.splitlines()[-1] == "OK"
