"""Replay the checked-in fuzz corpus (``fuzz`` marker).

Every shrunk or feature-rich replay file in ``tests/fuzz/corpus/`` is
re-executed through the full mode matrix and must reproduce its recorded
outcome: ``"ok"`` replays stay convergent, ``"divergence"`` replays (which
carry an intentional injection) must still be caught by the oracle.  The
CI fuzz-smoke job selects these with ``-m fuzz``; they also run in tier-1.
"""

import pathlib

import pytest

from repro.fuzz.harness import _protocol, connector_opts, run_all
from repro.fuzz.inject import INJECTIONS
from repro.fuzz.shrink import load_replay
from repro.runtime.ports import Inport, Outport

pytestmark = pytest.mark.fuzz

CORPUS_DIR = pathlib.Path(__file__).parent / "corpus"
CORPUS = sorted(CORPUS_DIR.glob("*.json"))


def test_corpus_is_populated():
    assert len(CORPUS) >= 5


@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_replay_matches_recorded_outcome(path):
    program, script, schedule, meta = load_replay(path)
    inject = INJECTIONS[meta["inject"]] if meta.get("inject") else None
    _, diffs = run_all(program, script, schedule, inject=inject)
    outcome = "divergence" if diffs else "ok"
    assert outcome == meta["expect"], diffs


@pytest.mark.parametrize("mode", ["regions-jit", "regions-aot"])
@pytest.mark.parametrize("stem", ["seed000-ok", "seed037-ok"])
def test_two_chain_replays_run_as_two_regions(stem, mode):
    """The oracle keeps its multi-region coverage: a generated program of
    two chains is two connected components, so two regions, each with its
    own lock under ``regions-*``."""
    program, _, _, _ = load_replay(CORPUS_DIR / f"{stem}.json")
    assert len(program.chains) == 2
    proto, tails, heads = _protocol(program)
    conn = proto.instantiate_connector(sizes=program.sizes,
                                       **connector_opts(mode))
    conn.connect([Outport(v) for v in tails], [Inport(v) for v in heads])
    try:
        regions = conn.engine.regions
        assert len(regions) == 2
        assert regions[0].lock is not regions[1].lock
    finally:
        conn.close()
