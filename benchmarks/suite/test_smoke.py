"""Smoke test of the benchmark suite (run explicitly; not part of tier-1):

    python -m pytest benchmarks/suite -q

Runs every workload for about a second in both modes, as the driver would,
and holds what comes out against ``BENCHMARK.json``.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


def smoke(workload: str, trace: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--smoke", "--trace", str(trace), *extra],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert proc.returncode == 0, proc.stdout[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names():
    names = WORKLOADS + [m["name"] for kind in ("end_to_end", "per_layer")
                         for m in SPEC[kind]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    assert "setup_s" in {m["name"] for m in SPEC["end_to_end"]}
    assert all(m["bound"] <= 0.25 for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end(workload):
    result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced(workload, tmp_path):
    result = smoke(workload, 1, "--trace-out", str(tmp_path))
    assert result["correct"]
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    value = {k: v["value"] for k, v in result["metrics"].items()}
    assert value["connector.connect_s"] > 0
    assert abs(value["trace.self_time_share"] - 1.0) <= 0.10

    # The same from the file: below every root span, self times add up to
    # the root's duration within 10 %.
    trace = json.loads((tmp_path / f"trace-{workload}.json").read_text())
    spans = {s["id"]: s for s in trace["spans"]}

    def root_of(sid):
        while spans[sid]["parent"]:
            sid = spans[sid]["parent"]
        return sid

    total = {sid: 0 for sid, s in spans.items() if not s["parent"]}
    for sid, s in spans.items():
        total[root_of(sid)] += s["self"]
    for parent, _, start, end in trace["leaves"]:
        total[root_of(parent)] += end - start
    assert total
    for sid, self_ns in total.items():
        wall = spans[sid]["end"] - spans[sid]["start"]
        assert abs(self_ns - wall) <= 0.10 * wall, spans[sid]


def test_no_repro_no_result(tmp_path):
    """In a directory with only BENCHMARK.json and the suite there is
    nothing to measure: non-zero exit, no result line."""
    suite = tmp_path / "benchmarks" / "suite"
    suite.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        (suite / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload",
         WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
