"""Checkpoints written by an earlier release still restore, byte for byte.

``golden/checkpoint-<row>.json`` holds a checkpoint in the durable on-disk
encoding (:func:`repro.runtime.durable.checkpoint_to_data`) taken mid-run
from EarlyAsyncMerger/16 and Sequencer/8 — buffers non-empty, round-robin
cursors set — and ``golden/continuation-<row>.json`` the operations the
same connector completed after it.  ``serve``'s snapshots are this format:
a change to how a JIT region lays out its control state (which components
the state tuple has, what its candidate lists look like and so what the
``rr`` cursors index) fails here before it strands a snapshot on disk.

Both files were written by the release before stateless sub-chains were
composed at connect (docs/DECISIONS.md row 16).  Run after an *intended*
format change only::

    PYTHONPATH=src python tests/runtime/test_checkpoint_golden.py
"""

import json
import pathlib
import random

import pytest

from repro.connectors import library
from repro.runtime.durable import checkpoint_from_data, checkpoint_to_data
from repro.runtime.ports import mkports

GOLDEN = pathlib.Path(__file__).parent / "golden"
ROWS = (("EarlyAsyncMerger", 16), ("Sequencer", 8))
BEFORE, AFTER = 160, 160  # try_* operations before / after the checkpoint


def _connected(name: str, n: int):
    conn = library.connector(name, n)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    return conn


def _schedule(name: str, n: int, conn):
    """The seeded operation list: ``(vertex, value)``, value ``None`` for a
    receive."""
    rng = random.Random(f"golden/{name}/{n}")
    vertices = list(conn.head_vertices) + list(conn.tail_vertices)
    heads = set(conn.head_vertices)
    return [(v, None if v in heads else i)
            for i, v in ((i, rng.choice(vertices))
                         for i in range(BEFORE + AFTER))]


def _run(conn, ops):
    """``try_*`` each operation (never blocks, leaves the engine quiescent);
    what completed, in order."""
    engine = conn.engine
    out = []
    for v, value in ops:
        done, got = engine.try_submit(engine.binding(v), value)
        out.append([v, done, got if value is None else value])
    return out


def _encoded(cp) -> str:
    return json.dumps(checkpoint_to_data(cp), indent=1, sort_keys=True) + "\n"


def _paths(name: str, n: int):
    return (GOLDEN / f"checkpoint-{name}-{n}.json",
            GOLDEN / f"continuation-{name}-{n}.json")


def record(name: str, n: int) -> tuple[str, list]:
    """Run the schedule's first part, checkpoint, run the rest: the
    encoded checkpoint and the second part's completions."""
    conn = _connected(name, n)
    ops = _schedule(name, n, conn)
    _run(conn, ops[:BEFORE])
    text = _encoded(conn.checkpoint(name))
    after = _run(conn, ops[BEFORE:])
    conn.close()
    return text, after


@pytest.mark.parametrize("name,n", ROWS)
def test_golden_is_mid_run(name, n):
    """The goldens are worth having: state away from the initial one,
    values in flight, cursors recorded, and a continuation that delivers."""
    cp_path, after_path = _paths(name, n)
    cp = checkpoint_from_data(json.loads(cp_path.read_text()))
    assert any(cp.buffers.values())
    assert all(region.rr for region in cp.regions)
    assert cp.steps > 0
    assert sum(done for _, done, _ in json.loads(after_path.read_text())) > 10


@pytest.mark.parametrize("name,n", ROWS)
def test_same_schedule_same_bytes(name, n):
    """A checkpoint taken now on the golden schedule is the golden one,
    byte for byte, and so is what follows it."""
    cp_path, after_path = _paths(name, n)
    text, after = record(name, n)
    assert text == cp_path.read_text()
    assert after == json.loads(after_path.read_text())


@pytest.mark.parametrize("name,n", ROWS)
def test_golden_restores_and_continues(name, n):
    """A fresh connector restored from the golden checkpoint completes the
    rest of the schedule exactly as the connector it was taken from did."""
    cp_path, after_path = _paths(name, n)
    conn = _connected(name, n)
    conn.restore(checkpoint_from_data(json.loads(cp_path.read_text())))
    after = _run(conn, _schedule(name, n, conn)[BEFORE:])
    conn.close()
    assert after == json.loads(after_path.read_text())


def main() -> None:
    for name, n in ROWS:
        text, after = record(name, n)
        cp_path, after_path = _paths(name, n)
        cp_path.write_text(text)
        after_path.write_text(json.dumps(after) + "\n")
        print(f"wrote {cp_path} and {after_path}")


if __name__ == "__main__":
    main()
