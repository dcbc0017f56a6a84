"""Property-based tests of the product (hypothesis).

The key algebraic facts the compiler relies on (§III.A/§IV.C): composition
is associative and commutative up to state renaming, and the lazy product
agrees with the eager product on the reachable fragment — for *arbitrary*
small automata, not just the library's.
"""

import itertools
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.automata.automaton import ConstraintAutomaton, Transition
from repro.automata.lazy import LazyProduct, LRUCache
from repro.automata.product import ComposedStep, compose_outgoing, product
from repro.connectors import library

# A small universe of vertex names; overlap between automata is what makes
# composition interesting.
VERTICES = ["a", "b", "c", "d", "e"]


@st.composite
def automata(draw):
    n_states = draw(st.integers(1, 3))
    initial = draw(st.integers(0, n_states - 1))
    vertices = draw(st.sets(st.sampled_from(VERTICES), min_size=1, max_size=3))
    n_trans = draw(st.integers(0, 4))
    transitions = []
    for _ in range(n_trans):
        src = draw(st.integers(0, n_states - 1))
        tgt = draw(st.integers(0, n_states - 1))
        label = draw(
            st.sets(st.sampled_from(sorted(vertices)), min_size=1, max_size=2)
        )
        transitions.append(Transition(src, frozenset(label), tgt))
    return ConstraintAutomaton(
        n_states, initial, frozenset(vertices), tuple(transitions)
    )


def canonical_traces(auto: ConstraintAutomaton, depth: int = 4) -> frozenset:
    """The set of label sequences of length <= depth from the initial state.

    Trace sets are invariant under state renaming, so they witness
    behavioural agreement between differently-shaped products.
    """
    out = set()

    def walk(state, prefix):
        out.add(tuple(prefix))
        if len(prefix) == depth:
            return
        for t in auto.outgoing(state):
            walk(t.target, prefix + [tuple(sorted(t.label))])

    walk(auto.initial, [])
    return frozenset(out)


def lazy_traces(automata_list, depth: int = 4) -> frozenset:
    lp = LazyProduct(automata_list)
    out = set()

    def walk(state, prefix):
        out.add(tuple(prefix))
        if len(prefix) == depth:
            return
        for step in lp.outgoing(state):
            walk(step.successor(state), prefix + [tuple(sorted(step.label))])

    walk(lp.initial, [])
    return frozenset(out)


@settings(max_examples=60, deadline=None)
@given(automata(), automata())
def test_product_commutative_up_to_traces(a1, a2):
    p12 = product([a1, a2], state_budget=2000)
    p21 = product([a2, a1], state_budget=2000)
    assert canonical_traces(p12) == canonical_traces(p21)


@settings(max_examples=40, deadline=None)
@given(automata(), automata(), automata())
def test_maximal_product_associative_up_to_traces(a1, a2, a3):
    """The textbook (maximal) product is associative — this is what licenses
    composing medium-automaton templates at compile time and composing the
    mediums again at run time (§IV.C/D)."""
    kw = dict(mode="maximal", state_budget=2000)
    left = product([product([a1, a2], **kw), a3], **kw)
    right = product([a1, product([a2, a3], **kw)], **kw)
    flat = product([a1, a2, a3], **kw)
    assert canonical_traces(left) == canonical_traces(flat)
    assert canonical_traces(right) == canonical_traces(flat)


@settings(max_examples=40, deadline=None)
@given(automata(), automata(), automata())
def test_maximal_inner_minimal_outer_bracketing(a1, a2, a3):
    """The compiler's actual composition discipline: inner groups composed
    in maximal mode, the final run-time composition in minimal mode.  Its
    behaviour is bracketed between the flat minimal product (it can do
    everything interleaving can) and the flat maximal product (it invents
    nothing beyond the textbook semantics).  (Minimal-in-minimal would not
    even satisfy the lower bound: an outer synchronization can force a
    joint step of two inner-independent transitions, which minimal inner
    composition lacks.)"""
    kw_max = dict(mode="maximal", state_budget=2000)
    inner = product([a1, a2], **kw_max)
    nested = product([inner, a3], mode="minimal", state_budget=2000)
    flat_min = product([a1, a2, a3], mode="minimal", state_budget=2000)
    flat_max = product([a1, a2, a3], mode="maximal", state_budget=2000)
    t_nested = canonical_traces(nested)
    assert canonical_traces(flat_min) <= t_nested
    assert t_nested <= canonical_traces(flat_max)


@settings(max_examples=60, deadline=None)
@given(st.lists(automata(), min_size=2, max_size=3))
def test_lazy_agrees_with_eager(autos):
    eager = product(autos, state_budget=2000)
    assert canonical_traces(eager) == lazy_traces(autos)


@settings(max_examples=60, deadline=None)
@given(automata(), automata())
def test_maximal_traces_contain_minimal(a1, a2):
    """Every minimal-mode behaviour is also a maximal-mode behaviour."""
    minimal = product([a1, a2], mode="minimal", state_budget=2000)
    maximal = product([a1, a2], mode="maximal", state_budget=2000)
    # each single minimal step exists among maximal steps of the same state
    min_labels = {(t.source, t.label) for t in minimal.transitions}
    # maximal states are a superset tuple-indexed differently; compare from
    # the initial state only (states are both BFS-numbered from init=0)
    init_min = {t.label for t in minimal.outgoing(0)}
    init_max = {t.label for t in maximal.outgoing(0)}
    assert init_min <= init_max
    assert min_labels  is not None


# -- enumeration is pinned, order included ----------------------------------
#
# ``compose_outgoing`` cuts non-canonical seeds and memoises closures per
# local neighbourhood.  Round-robin cursors, checkpoints and fuzz traces
# index its result by position, so it must return exactly what the plain
# enumeration returns, in the same order.  The plain enumeration is kept
# here, verbatim, as the reference.

STATE_CAP = 2000


def reference_outgoing(automata, local_states):
    owners = {}
    for i, a in enumerate(automata):
        for v in a.vertices:
            owners.setdefault(v, []).append(i)
    seen = set()
    steps = []

    def close(parts, label):
        pending = None
        for v in label:
            for j in owners[v]:
                if j not in parts:
                    pending = j
                    break
            if pending is not None:
                break
        if pending is None:
            for i, t in parts.items():
                if (frozenset(label) & automata[i].vertices) != t.label:
                    return
            key = frozenset(parts.items())
            if key not in seen:
                seen.add(key)
                steps.append(ComposedStep(dict(parts)))
            return
        j = pending
        need = frozenset(label) & automata[j].vertices
        for t in automata[j].outgoing(local_states[j]):
            if t.label >= need:
                parts[j] = t
                close(parts, label | set(t.label))
                del parts[j]

    for i, a in enumerate(automata):
        for t in a.outgoing(local_states[i]):
            close({i: t}, set(t.label))
    return steps


def reference_product_transitions(automata):
    """``product()``'s exploration over the reference enumeration."""
    init = tuple(a.initial for a in automata)
    ids = {init: 0}
    frontier = [init]
    out = []
    while frontier:
        src = frontier.pop()
        for step in reference_outgoing(automata, src):
            tgt = step.successor(src)
            if tgt not in ids:
                ids[tgt] = len(ids)
                frontier.append(tgt)
            out.append(
                Transition(ids[src], step.label, ids[tgt], step.atoms, step.effects)
            )
    return tuple(out)


def keys(steps):
    return [s.key() for s in steps]


def check_enumeration(automata_list, states):
    """``states`` in visiting order; every route to ``compose_outgoing``
    must agree with the reference on each."""
    expected = {s: keys(reference_outgoing(automata_list, s)) for s in set(states)}
    fresh = LazyProduct(automata_list)
    for s in states:
        assert keys(compose_outgoing(automata_list, s)) == expected[s]
        assert keys(fresh.outgoing(s)) == expected[s]
    # a four-state cache evicts nearly everything: the second round
    # re-expands through the memo alone
    bounded = LazyProduct(automata_list, cache=LRUCache(4))
    for s in states + states:
        assert keys(bounded.outgoing(s)) == expected[s]
    assert bounded.cache.evictions or len(set(states)) <= 4


def reachable(automata_list, cap):
    init = tuple(a.initial for a in automata_list)
    order, seen, queue = [], {init}, [init]
    while queue and len(order) < cap:
        s = queue.pop(0)
        order.append(s)
        for step in reference_outgoing(automata_list, s):
            t = step.successor(s)
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return order, not queue


@pytest.mark.parametrize("n", (2, 3, 8))
@pytest.mark.parametrize("name", library.names())
def test_enumeration_matches_reference_over_reachable_states(name, n):
    autos = library.connector(name, n).automata
    states, complete = reachable(autos, STATE_CAP)
    check_enumeration(autos, states)
    if complete and len(autos) > 1:
        eager = product(autos, state_budget=STATE_CAP)
        assert eager.transitions == reference_product_transitions(autos)


@pytest.mark.parametrize("name,n", [
    ("EarlyAsyncMerger", 16), ("LateAsyncRouter", 16),
    ("LateAsyncReplicator", 12), ("EarlyAsyncBarrierMerger", 8),
])
def test_enumeration_matches_reference_on_a_wide_random_walk(name, n):
    autos = library.connector(name, n).automata
    rng = random.Random(f"{name}/{n}")
    state = tuple(a.initial for a in autos)
    states = []
    for _ in range(500):
        states.append(state)
        steps = reference_outgoing(autos, state)
        if not steps:
            break
        state = rng.choice(steps).successor(state)
    check_enumeration(autos, states)


@settings(max_examples=200, deadline=None)
@given(st.lists(automata(), min_size=2, max_size=4))
def test_enumeration_matches_reference_on_arbitrary_automata(autos):
    """Vertices with three and four owners, repeated transitions, components
    that can never agree: nothing the library's connectors contain."""
    check_enumeration(
        autos, list(itertools.product(*(range(a.n_states) for a in autos)))
    )


def test_composed_steps_are_shared_between_global_states():
    """One ``ComposedStep`` object per set of local transitions, whatever
    global state it is met from — the compiled tier emits per object."""
    autos = library.connector("EarlyAsyncMerger", 8).automata
    lp = LazyProduct(autos)
    states, _ = reachable(autos, 200)
    by_key = {}
    for s in states:
        for step in lp.outgoing(s):
            assert by_key.setdefault(step.key(), step) is step
    assert len(by_key) < sum(len(lp.outgoing(s)) for s in states) / 4


def test_equal_local_transitions_are_enumerated_once():
    """The one case where canonical seeds alone would repeat a step: an
    automaton listing the same transition twice."""
    t = Transition(0, frozenset({"a"}), 0)
    twice = ConstraintAutomaton(1, 0, frozenset({"a"}), (t, Transition(0, frozenset({"a"}), 0)))
    other = ConstraintAutomaton(1, 0, frozenset({"a", "b"}), (
        Transition(0, frozenset({"a", "b"}), 0), Transition(0, frozenset({"b"}), 0),
    ))
    for autos in ([twice, other], [other, twice]):
        assert keys(compose_outgoing(autos, (0, 0))) == keys(
            reference_outgoing(autos, (0, 0))
        )


def test_compose_memo_is_bounded(monkeypatch):
    # (the package re-exports the function under the module's name)
    monkeypatch.setattr(sys.modules["repro.automata.product"], "MEMO_CAP", 8)
    autos = library.connector("EarlyAsyncBarrierMerger", 8).automata
    lp = LazyProduct(autos, cache=LRUCache(2))
    states, _ = reachable(autos, 256)
    per_call = sum(
        max(len(a.outgoing(s)) for s in range(a.n_states)) for a in autos
    )
    sizes = []
    for s in states:
        assert keys(lp.outgoing(s)) == keys(reference_outgoing(autos, s))
        sizes.append(lp._memo.entries)
    assert max(sizes) <= 8 + per_call  # left alone it reaches 65 > 8 + 45


# -- the maximal enumeration is pinned the same way --------------------------
#
# Medium templates are maximal products, and their transition order is the
# candidate order of every connector built from them.  ``_compose_maximal``
# checks a choice against the earlier components sharing a vertex with it
# and shares one step object per set of local transitions; the plain
# all-pairs enumeration it replaced is kept here, verbatim, as the reference.


def reference_maximal(automata, local_states):
    n = len(automata)
    steps = []

    def ok_pair(i, ti, j, tj):
        return (ti.label & automata[j].vertices) == (tj.label & automata[i].vertices)

    def ok_idle(i, ti, j):
        return not (ti.label & automata[j].vertices)

    def rec(k, parts, idles):
        if k == n:
            if parts:
                steps.append(ComposedStep(dict(parts)))
            return
        if all(ok_idle(i, t, k) for i, t in parts.items()):
            idles.append(k)
            rec(k + 1, parts, idles)
            idles.pop()
        for t in automata[k].outgoing(local_states[k]):
            if all(ok_pair(k, t, i, ti) for i, ti in parts.items()) and all(
                ok_idle(k, t, j) for j in idles
            ):
                parts[k] = t
                rec(k + 1, parts, idles)
                del parts[k]

    rec(0, {}, [])
    return steps


def parts_of(steps):
    """The parts of each step, in order, transitions by identity (an
    automaton may list equal transitions: each is a step of its own)."""
    return [[(i, id(t)) for i, t in step.parts.items()] for step in steps]


def check_maximal(automata_list):
    """Every state the reference product reaches: the same parts in the same
    order, and ``product`` builds the reference's transitions."""
    init = tuple(a.initial for a in automata_list)
    ids, frontier, expected = {init: 0}, [init], []
    while frontier:
        src = frontier.pop()
        steps = reference_maximal(automata_list, src)
        assert parts_of(compose_outgoing(automata_list, src, "maximal")) == parts_of(steps)
        for step in steps:
            tgt = step.successor(src)
            if tgt not in ids:
                ids[tgt] = len(ids)
                frontier.append(tgt)
            expected.append(
                Transition(ids[src], step.label, ids[tgt], step.atoms, step.effects))
    if len(automata_list) > 1:
        made = product(automata_list, mode="maximal", state_budget=None)
        assert made.n_states == len(ids)
        assert made.transitions == tuple(expected)


def library_templates():
    from repro.compiler.parametrized import compile_source

    def walk(node):
        yield from node.templates
        for p in node.prods:
            yield from walk(p.body)
        for c in node.conds:
            yield from walk(c.then)
            if c.els is not None:
                yield from walk(c.els)

    for name in library.names():
        program = compile_source(library.dsl_source(name, 3))
        for proto in program.protocols.values():
            for template in walk(proto.plan):
                yield pytest.param(template.symbolic_smalls, id=f"{name}:{template.name}")


@pytest.mark.parametrize("depth", range(1, 11))
def test_maximal_matches_reference_on_fifo_chains(depth):
    from repro.compiler.parametrized import compile_source

    template, = compile_source(library.dsl_source("FifoChain", depth)).protocol(
        "FifoChain").plan.templates
    check_maximal(list(template.symbolic_smalls))


@pytest.mark.parametrize("smalls", library_templates())
def test_maximal_matches_reference_on_library_templates(smalls):
    check_maximal(list(smalls))


@settings(max_examples=200, deadline=None)
@given(st.lists(automata(), min_size=2, max_size=4))
def test_maximal_matches_reference_on_arbitrary_automata(autos):
    check_maximal(autos)


# -- the suffix memo's key ---------------------------------------------------
#
# ``product`` enumerates the choices of components k… once per k, their
# local states and the shared vertices the earlier components fired, and
# hands the result to every state that meets the same three.  Each group
# below is shaped so that a key missing the local states or the fired
# vertices merges suffixes that differ.


def _fifo(a, b, full=False):
    return ConstraintAutomaton(2, int(full), frozenset({a, b}), (
        Transition(0, frozenset({a}), 1), Transition(1, frozenset({b}), 0)))


def _branching(vertices, labels):
    """One state, a self-loop per label, in order — equal labels included."""
    return ConstraintAutomaton(1, 0, frozenset(vertices), tuple(
        Transition(0, frozenset(label), 0) for label in labels))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_maximal_memo_ring_closing_on_the_first_component(n):
    """The last fifo feeds the first: component 0's choice constrains the
    last component across every level in between."""
    check_maximal([_fifo(f"x{i}", f"x{(i + 1) % n}", full=i % 2 == 0)
                   for i in range(n)])


def test_maximal_memo_component_joining_two_unrelated_earlier_ones():
    """Components 0 and 1 share nothing; component 2 owns a vertex of each,
    so what it may do depends on both earlier choices at once."""
    join = ConstraintAutomaton(2, 0, frozenset({"b", "d", "e"}), (
        Transition(0, frozenset({"b", "d"}), 1),
        Transition(0, frozenset({"b"}), 0),
        Transition(1, frozenset({"e"}), 0)))
    check_maximal([_fifo("a", "b", full=True), _fifo("c", "d"), join,
                   _fifo("e", "f"), _fifo("f", "a", full=True)])


def test_maximal_memo_several_transitions_in_one_state():
    """Components choosing among several transitions in one state, equal
    ones included (each is a step of its own)."""
    check_maximal([
        _branching("ab", ["a", "b", "ab"]),
        _fifo("b", "c"),
        _branching("cd", ["c", "d", "cd", "d"]),
        _fifo("d", "e", full=True),
        _branching("ea", ["e", "a", "ea"]),
    ])


def test_maximal_memo_index_aliasing_recompose(monkeypatch):
    """``MediumTemplate.instantiate_medium`` recomposes a group whose
    indices collide at this arity (t[1] is t[#t] for one tail) from its
    concrete members, closing a ring through the collided vertex."""
    import repro.compiler.plan as plan
    from repro.compiler.parametrized import compile_source

    src = ("R(t[];h) = Fifo1(t[1];m) mult Fifo1Full(m;t[#t]) mult "
           "Router(m;n,k) mult Fifo1(n;h) mult Fifo1Full(k;h)")
    protocol = compile_source(src).protocol("R")
    recomposed = []
    real = plan.product

    def spy(automata, **kw):
        recomposed.append(list(automata))
        return real(automata, **kw)

    monkeypatch.setattr(plan, "product", spy)
    (made,) = protocol.automata_for(protocol.default_bindings(1))
    (members,) = recomposed
    assert made.n_states == 8 and len(made.transitions) == 11
    check_maximal(members)
