"""The parametrized compilation approach: plans, templates, instantiation."""

import pytest

from repro.compiler.parametrized import compile_program, compile_source
from repro.compiler.plan import group_prims, resolve_name
from repro.lang import ast
from repro.lang.flatten import NameExpr, flatten
from repro.lang.interp import Env
from repro.lang.normalize import normalize
from repro.lang.parser import parse
from repro.util.errors import CompilationError, ScopeError


def test_compile_once_instantiate_many(fig9_source):
    """§V.B: 'with the new compiler, only one compilation was necessary'."""
    program = compile_source(fig9_source)
    protocol = program.protocol("ConnectorEx11N")
    for n in (1, 2, 3, 7):
        bindings = protocol.default_bindings(n)
        autos = protocol.automata_for(bindings)
        assert autos  # every n instantiates from the same compiled plan


def test_instantiation_counts_match_fig10(fig9_source):
    """Fig. 10's structure: 1 automaton for n=1; for n>1, one per X instance
    plus one per neighbouring Seq2 plus the closing Seq2."""
    protocol = compile_source(fig9_source).protocol("ConnectorEx11N")
    assert len(protocol.automata_for(protocol.default_bindings(1))) == 1
    for n in (2, 4, 6):
        autos = protocol.automata_for(protocol.default_bindings(n))
        assert len(autos) == n + (n - 1) + 1


def test_medium_vs_small_granularity(fig9_source):
    protocol = compile_source(fig9_source).protocol("ConnectorEx11N")
    b = protocol.default_bindings(3)
    mediums = protocol.automata_for(b, granularity="medium")
    smalls = protocol.automata_for(b, granularity="small")
    # X composes 3 primitives into one medium automaton
    assert len(smalls) > len(mediums)
    assert len(smalls) == 3 * 3 + 2 + 1


def test_templates_composed_at_compile_time(fig9_source):
    protocol = compile_source(fig9_source).protocol("ConnectorEx11N")
    # the prod body's template (X) is already a composed 2-state automaton
    prod_node = protocol.plan.conds[0].els.prods[0]
    (template,) = prod_node.body.templates
    assert len(template.fprims) == 3
    assert template.automaton.n_states == 2  # fifo1 empty/full
    assert repr(template) == "MediumTemplate(3 prims, 2 states)"


def test_uncomposed_template_repr():
    """A group over the template state budget is left uncomposed."""
    from repro.connectors import library

    plan = compile_source(library.dsl_source("FifoChain", 13)).protocol(
        "FifoChain").plan
    assert [repr(t) for t in plan.templates] == [
        "MediumTemplate(uncomposed, 13 prims)"]


def test_over_budget_group_is_refused_before_composing(monkeypatch):
    """The members' state counts bound a group's product: a group whose
    bound is over the budget is never composed, one at the budget is."""
    from repro.compiler import plan
    from repro.connectors import library

    def refuse(*_args, **_kwargs):
        raise AssertionError("composed a group over the budget")

    monkeypatch.setattr(plan, "TEMPLATE_STATE_BUDGET", 16)
    four = parse(library.dsl_source("FifoChain", 4))
    composed, = compile_program(four).protocol("FifoChain").plan.templates
    assert repr(composed) == "MediumTemplate(4 prims, 16 states)"
    monkeypatch.setattr(plan, "product", refuse)
    monkeypatch.setattr(plan, "TEMPLATE_STATE_BUDGET", 15)
    for program in (four, parse(library.dsl_source("FifoChain", 64))):
        template, = compile_program(program).protocol("FifoChain").plan.templates
        assert template.automaton is None


def test_conditional_selects_branch(fig9_source):
    protocol = compile_source(fig9_source).protocol("ConnectorEx11N")
    autos1 = protocol.automata_for(protocol.default_bindings(1))
    assert autos1[0].n_states == 2  # the single Fifo1
    assert "fifo" in autos1[0].name


def test_buffer_names_unique_across_iterations(fig9_source):
    protocol = compile_source(fig9_source).protocol("ConnectorEx11N")
    autos = protocol.automata_for(protocol.default_bindings(4))
    buffers = [b.name for a in autos for b in a.buffers]
    assert len(buffers) == len(set(buffers)) == 4


def test_vertex_wiring_across_mediums(fig9_source):
    """Seq2(next[i],prev[i+1]) must share vertices with X(i) and X(i+1)."""
    protocol = compile_source(fig9_source).protocol("ConnectorEx11N")
    autos = protocol.automata_for(protocol.default_bindings(2))
    all_vertices = [a.vertices for a in autos]
    seqs = [v for v in all_vertices if len(v) == 2]
    xs = [v for v in all_vertices if len(v) >= 4]
    assert len(seqs) == 2 and len(xs) == 2
    for s in seqs:
        assert any(s & x for x in xs)


def test_default_bindings_sizes():
    src = "D(t[],u;h[]) = Sync(u;h[1]) mult prod (i:1..#t) Fifo1(t[i];h[i])"
    protocol = compile_source(src).protocol("D")
    b = protocol.default_bindings({"t": 3, "h": 3})
    assert len(b["t"]) == 3 and b["u"] == "u"
    with pytest.raises(ScopeError, match="no length"):
        protocol.default_bindings({"t": 3})
    with pytest.raises(ScopeError, match="nonempty"):
        protocol.default_bindings(0)


def test_boundary_vertices_order():
    src = "D(t[],u;h) = Sync(u;h) mult prod (i:1..#t) Fifo1(t[i];h2[i])"
    protocol = compile_source(src).protocol("D")
    b = protocol.default_bindings(2)
    tails, heads = protocol.boundary_vertices(b)
    assert tails == ["t@1", "t@2", "u"]
    assert heads == ["h"]


def test_empty_instantiation_rejected():
    src = "D(t[];h) = if (#t == 99) { Sync(t[1];h) }"
    protocol = compile_source(src).protocol("D")
    with pytest.raises(CompilationError, match="no constituents"):
        protocol.automata_for(protocol.default_bindings(2))


def test_empty_prod_range_allowed():
    src = "D(t[];h) = Sync(t[1];h) mult prod (i:2..#t) Sync(t[i];x[i])"
    protocol = compile_source(src).protocol("D")
    autos = protocol.automata_for(protocol.default_bindings(1))
    assert len(autos) == 1


def test_group_prims_by_shared_vertices():
    src = "D(a,b;c,d) = Sync(a;x) mult Sync(x;c) mult Sync(b;d)"
    nf = normalize(flatten(parse(src), "D"))
    groups = group_prims(nf.prims)
    assert sorted(len(g) for g in groups) == [1, 2]


def test_resolve_name_paths():
    env = Env(variables={"i": 2}, lengths={"t": 3})
    ports = {"t": ["T1", "T2", "T3"], "u": "U"}
    assert resolve_name(NameExpr("t", (ast.Var("i"),), True), env, ports) == "T2"
    assert resolve_name(NameExpr("u", (), True), env, ports) == "U"
    assert resolve_name(NameExpr("loc$v", (ast.Var("i"),), False), env, ports) == "loc$v@2"
    assert resolve_name(NameExpr("loc$w", (), False), env, ports) == "loc$w"
    with pytest.raises(ScopeError, match="out of range"):
        resolve_name(NameExpr("t", (ast.Num(9),), True), env, ports)
    with pytest.raises(ScopeError, match="cannot be indexed"):
        resolve_name(NameExpr("u", (ast.Num(1),), True), env, ports)


def test_program_protocol_lookup(fig9_source):
    program = compile_source(fig9_source)
    assert program.protocol().name == "ConnectorEx11N"  # from main
    assert program.protocol("X").name == "X"
    with pytest.raises(ScopeError):
        program.protocol("Nope")


def test_protocol_lookup_without_main_ambiguous():
    program = compile_source("A(a;b) = Sync(a;b)\nB(a;b) = Sync(a;b)")
    with pytest.raises(ScopeError, match="several"):
        program.protocol()


def test_aliasing_instantiation_falls_back_soundly():
    """Two canonically distinct indices that collide at run time must not
    reuse the precomposed template blindly."""
    src = "D(t[];h[]) = Sync(t[1];x) mult Sync(x;h[1]) mult Sync(t[#t];y) mult Sync(y;h[#t])"
    protocol = compile_source(src).protocol("D")
    # n=1: t[1] == t[#t] alias; must still produce *some* sound automata
    autos = protocol.automata_for(protocol.default_bindings(1))
    vertices = frozenset().union(*(a.vertices for a in autos))
    assert "t@1" in vertices and "h@1" in vertices
