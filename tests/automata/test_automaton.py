"""Constraint automata: construction, validation, renaming, hiding.

Includes the example automata of the paper's Fig. 7, built by hand.
"""

import pytest

from repro.automata.automaton import BufferSpec, ConstraintAutomaton, Transition
from repro.automata.constraint import (
    Buf, Eq, NotEmpty, Pop, Push, V, rename_atom, rename_effect,
)
from repro.util.errors import WellFormednessError


def sync_automaton(a="v1", b="v2"):
    """Fig. 7(a): one state, one transition {v1; v2}."""
    return ConstraintAutomaton(
        n_states=1,
        initial=0,
        vertices=frozenset((a, b)),
        transitions=(Transition(0, frozenset((a, b)), 0, (Eq(V(a), V(b)),)),),
        name="sync",
    )


def fifo1_automaton(a="v1", b="v2", buf="q"):
    """Fig. 7(b): two states (empty/full), asynchronous transitions."""
    return ConstraintAutomaton(
        n_states=2,
        initial=0,
        vertices=frozenset((a, b)),
        transitions=(
            Transition(0, frozenset((a,)), 1, (), (Push(buf, V(a)),)),
            Transition(1, frozenset((b,)), 0, (Eq(V(b), Buf(buf)),), (Pop(buf),)),
        ),
        buffers=(BufferSpec(buf, capacity=1),),
        name="fifo1",
    )


def test_fig7_sync_shape():
    a = sync_automaton()
    assert a.n_states == 1
    assert len(a.transitions) == 1
    assert a.transitions[0].label == frozenset({"v1", "v2"})


def test_fig7_fifo1_shape():
    a = fifo1_automaton()
    assert a.n_states == 2
    labels = {t.label for t in a.transitions}
    assert labels == {frozenset({"v1"}), frozenset({"v2"})}


def test_outgoing_index():
    a = fifo1_automaton()
    assert [t.label for t in a.outgoing(0)] == [frozenset({"v1"})]
    assert [t.label for t in a.outgoing(1)] == [frozenset({"v2"})]


def test_rejects_bad_initial():
    with pytest.raises(WellFormednessError):
        ConstraintAutomaton(1, 5, frozenset(), ())


def test_rejects_out_of_range_transition():
    with pytest.raises(WellFormednessError):
        ConstraintAutomaton(
            1, 0, frozenset({"a"}), (Transition(0, frozenset({"a"}), 3),)
        )


def test_rejects_undeclared_vertex_in_label():
    with pytest.raises(WellFormednessError):
        ConstraintAutomaton(
            1, 0, frozenset({"a"}), (Transition(0, frozenset({"a", "b"}), 0),)
        )


def test_rejects_undeclared_buffer():
    with pytest.raises(WellFormednessError):
        ConstraintAutomaton(
            1,
            0,
            frozenset({"a"}),
            (Transition(0, frozenset({"a"}), 0, (), (Push("nosuch", V("a")),)),),
        )


def test_rejects_duplicate_buffers():
    with pytest.raises(WellFormednessError):
        ConstraintAutomaton(
            1, 0, frozenset(), (),
            buffers=(BufferSpec("q"), BufferSpec("q")),
        )


def test_renamed_vertices_and_buffers():
    a = fifo1_automaton()
    r = a.renamed({"v1": "x", "v2": "y"}, {"q": "p"})
    assert r.vertices == frozenset({"x", "y"})
    assert r.transitions[0].label == frozenset({"x"})
    assert r.transitions[0].effects == (Push("p", V("x")),)
    assert r.buffers[0].name == "p"
    # original untouched
    assert a.vertices == frozenset({"v1", "v2"})


def test_a_rename_that_changes_no_name_is_the_automaton_itself():
    """As ``hide`` hiding nothing is: maps that send every name to itself,
    empty maps and the automaton's own name all give ``self``; any name
    that changes gives a new automaton, the original untouched."""
    a = fifo1_automaton()
    assert a.renamed() is a
    assert a.renamed({"v1": "v1", "v2": "v2"}, {"q": "q"}) is a
    assert a.renamed({"v1": "v1"}, name=a.name) is a
    named = a.renamed(name="other")
    assert named is not a and named.name == "other"
    assert named.transitions == a.transitions
    moved = a.renamed({"v1": "v1", "v2": "y"}, {"q": "q"})
    assert moved is not a and moved.vertices == frozenset({"v1", "y"})
    assert a.vertices == frozenset({"v1", "v2"})


def test_an_instance_that_renames_nothing_is_its_template():
    """FifoChain/8's one template (256 states) names the chain's own
    vertices and buffers, so its instance is the template object; an
    instance whose names differ is the renamed copy it always was."""
    from repro.compiler.parametrized import compile_source
    from repro.connectors import library

    proto = compile_source(library.dsl_source("FifoChain", 8)).protocol(
        "FifoChain")
    template, = proto.plan.templates
    conn = proto.instantiate_connector()
    assert conn.automata == [template.automaton]
    assert conn.automata[0] is template.automaton
    conn.close()

    a = template.automaton
    vmap = {v: v + "'" for v in a.vertices}
    r = a.renamed(vmap, {})
    assert r is not a and r.vertices == frozenset(vmap.values())
    assert r.n_states == a.n_states == 256
    assert [(t.source, t.target) for t in r.transitions] == [
        (t.source, t.target) for t in a.transitions]


def test_renamed_equals_a_transition_by_transition_rename():
    """``renamed`` renames each distinct label, atom and effect object once
    and reuses it; the result is the plain per-transition rename."""
    from repro.compiler.parametrized import compile_source
    from repro.connectors import library

    template, = compile_source(library.dsl_source("FifoChain", 6)).protocol(
        "FifoChain").plan.templates
    a = template.automaton
    vmap = {v: f"x{i}" for i, v in enumerate(sorted(a.vertices))}
    bmap = {b.name: f"p{i}" for i, b in enumerate(a.buffers)}
    r = a.renamed(vmap, bmap)
    assert r.transitions == tuple(
        Transition(
            t.source,
            frozenset(vmap[v] for v in t.label),
            t.target,
            tuple(rename_atom(x, vmap, bmap) for x in t.atoms),
            tuple(rename_effect(x, vmap, bmap) for x in t.effects),
        )
        for t in a.transitions
    )
    assert r.vertices == frozenset(vmap.values())
    assert [b.name for b in r.buffers] == [bmap[b.name] for b in a.buffers]


def test_a_renamed_instance_carries_its_own_decoupled_halves():
    """A medium instance's decoupled form is renamed with it: every half
    names the instance's vertices and buffers (EarlyAsyncMerger/3's
    ``t@1``, ``q$0@1``), not the template's (``t[i$0]``, ``q$0[i$0]``)."""
    from repro.automata.partition import decoupled_form
    from repro.connectors import library

    seen = 0
    for name in library.names():
        for n in (2, 3):
            conn = library.connector(name, n)
            for a in conn.automata:
                buffers = {b.name for b in a.buffers}
                for half in decoupled_form(a) or ():
                    seen += 1
                    assert half.vertices <= a.vertices, (name, n, a.name)
                    assert {b.name for b in half.buffers} <= buffers
    assert seen > 0


def test_undeclared_buffer_in_the_last_of_many_transitions_is_rejected():
    """Validation checks each distinct atom and effect once — and every one:
    a reference made only by the last of a thousand transitions counts."""
    push, pop = Push("q", V("a")), Pop("q")
    shared = tuple(Transition(0, frozenset({"a"}), 0, (), (push, pop)) for _ in range(999))
    last = Transition(0, frozenset({"a"}), 0, (NotEmpty("ghost"),), (push,))
    with pytest.raises(WellFormednessError, match="ghost"):
        ConstraintAutomaton(
            1, 0, frozenset({"a"}), shared + (last,), buffers=(BufferSpec("q"),))
    ConstraintAutomaton(1, 0, frozenset({"a"}), shared, buffers=(BufferSpec("q"),))


def test_hide_removes_from_labels_not_constraints():
    a = sync_automaton()
    h = a.hide({"v1"})
    assert h.vertices == frozenset({"v2"})
    assert h.transitions[0].label == frozenset({"v2"})
    # the data constraint still mentions the hidden vertex (internal slot)
    assert h.transitions[0].atoms == (Eq(V("v1"), V("v2")),)


def test_hide_can_produce_internal_steps():
    a = sync_automaton()
    h = a.hide({"v1", "v2"})
    assert h.transitions[0].label == frozenset()


def test_buffer_map():
    a = fifo1_automaton()
    assert a.buffer_map["q"].capacity == 1
