"""Ahead-of-time composition runs as a product of one member.

``composition="aot"`` composes the large automaton before the run and hands
it to the same region, expansion and step compiler as ``"jit"``: expanding
a state looks its transitions up.  Held here: that lookup lists what the
automaton lists, in its order (round-robin cursors index that list); one
step function per distinct step, not per transition; and a checkpoint
restores only into a connector of its own composition.
"""

from dataclasses import replace

import pytest

from repro.connectors import library
from repro.runtime.ports import mkports
from repro.util.errors import CheckpointError


def connected(name, n, **options):
    conn = library.connector(name, n, **options)
    conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    return conn


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("name", library.names())
def test_a_state_lists_the_large_automatons_own_transitions(name, n):
    """Every state's candidates are its transitions in the large
    automaton, the very objects in the very order, each a step of one part
    that carries its transition's label, atoms and effects."""
    conn = connected(name, n, composition="aot", compiled="off")
    try:
        (region,) = conn.engine.regions
        assert region.kind == "eager"
        (large,) = region.lazy.automata
        for s in range(large.n_states):
            steps = region.lazy.outgoing((s,))
            transitions = large.outgoing(s)
            assert len(steps) == len(transitions), (s, name, n)
            for step, t in zip(steps, transitions):
                (part,) = step.parts.values()
                assert part is t
                assert step.label is t.label
                assert step.atoms is t.atoms
                assert step.effects is t.effects
                assert step.successor((s,)) == (t.target,)
    finally:
        conn.close()


def test_one_step_function_per_distinct_step():
    """EarlyAsyncMerger/8 composed ahead of time: 256 states and 2 048
    transitions, but 16 distinct steps (a send into each fifo, a delivery
    from each) — and 16 emitted functions once a run has been through
    every state."""
    conn = connected("EarlyAsyncMerger", 8, composition="aot")
    engine = conn.engine
    tails, (head,) = conn.tail_vertices, conn.head_vertices
    try:
        for mask in range(1 << len(tails)):
            full = [v for i, v in enumerate(tails) if mask >> i & 1]
            for v in full:
                assert engine.post_send(v, mask).done
            for _ in full:
                assert engine.post_recv(head).done
        stats = conn.stats()
        assert stats["compiled_states"] == 256
        assert stats["emitted_steps"] == 16
    finally:
        conn.close()


@pytest.mark.parametrize("name,n", [("FifoChain", 8), ("EarlyAsyncMerger", 3),
                                    ("Sequencer", 3), ("Barrier", 2)])
def test_a_checkpoint_restores_only_into_its_own_composition(name, n):
    """A jit checkpoint is refused by an aot connector and the other way
    round, also where both states are one-component tuples in range of
    the other connector (FifoChain/8: its jit region is one template of
    256 states, as its aot region is one automaton of 256)."""
    for taken, into in (("jit", "aot"), ("aot", "jit")):
        source = connected(name, n, composition=taken)
        target = connected(name, n, composition=into)
        try:
            cp = source.checkpoint()
            with pytest.raises(CheckpointError, match="kind mismatch"):
                target.restore(cp)
            target.restore(target.checkpoint())  # its own kind restores
        finally:
            source.close()
            target.close()


def test_a_state_that_is_no_tuple_is_refused():
    """An ``"eager"`` region state written as a bare int (no longer a
    state of any region) fails the restore as a ``CheckpointError``, with
    the engine left as it was."""
    conn = connected("EarlyAsyncMerger", 2, composition="aot")
    try:
        cp = conn.checkpoint()
        (rs,) = cp.regions
        bad = replace(cp, regions=(replace(rs, state=rs.state[0]),))
        with pytest.raises(CheckpointError, match="not a tuple"):
            conn.restore(bad)
        conn.restore(cp)
    finally:
        conn.close()
