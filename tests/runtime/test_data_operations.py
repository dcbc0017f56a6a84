"""Data-sensitive primitives at run time: filter, transform, registries.

These exercise the full path DSL → constraint atoms → firing plans →
delivered values, with user-supplied functions and predicates.
"""

import pytest

from repro.automata.constraint import DEFAULT_REGISTRY, FunctionRegistry
from repro.compiler import compile_source
from repro.runtime.ports import mkports

from tests.conftest import pump


def registry():
    reg = DEFAULT_REGISTRY.merged_with(None)
    reg.register_predicate("even", lambda x: x % 2 == 0)
    reg.register_function("double", lambda x: 2 * x)
    reg.register_function("fmt", lambda x: f"<{x}>")
    return reg


def conn_for(source, name=None, **options):
    program = compile_source(source)
    return program.instantiate_connector(name, registry=registry(), **options)


def test_transform_applies_function():
    conn = conn_for("T(a;b) = Transform<double>(a;b)")
    got = pump(conn, {0: [1, 2, 3]}, {0: 3})
    assert got[0] == [2, 4, 6]


def test_transform_chain_composes():
    conn = conn_for("T(a;b) = Transform<double>(a;m) mult Transform<fmt>(m;b)")
    got = pump(conn, {0: [5]}, {0: 1})
    assert got[0] == ["<10>"]


def test_filter_passes_matching():
    """Filter keeps matching data and *loses* the rest (lossy semantics)."""
    conn = conn_for("F(a;b) = Filter<even>(a;b)")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    # odd values are consumed-and-lost even without a receiver
    for v in (1, 3, 5):
        assert outs[0].try_send(v)
    # an even value needs the receiver (it must flow through)
    assert not outs[0].try_send(2)
    from repro.runtime.tasks import spawn

    h = spawn(ins[0].recv)
    outs[0].send(2)
    assert h.join(5) == 2
    conn.close()


def test_filter_then_buffer():
    conn = conn_for("F(a;b) = Filter<even>(a;m) mult Fifo1(m;b)")
    got = pump(conn, {0: [1, 2, 3, 4, 5, 6]}, {0: 3})
    assert got[0] == [2, 4, 6]


def test_transform_through_fifo():
    """Transforms compose with buffering: value transformed on entry."""
    conn = conn_for("T(a;b) = Transform<double>(a;m) mult Fifo1(m;b)")
    got = pump(conn, {0: [7]}, {0: 1})
    assert got[0] == [14]


def test_missing_function_raises_at_fire_time():
    conn = compile_source(
        "T(a;b) = Transform<nosuch>(a;b)"
    ).instantiate_connector("T", compiled="off")  # default registry lacks 'nosuch'
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    from repro.runtime.tasks import spawn

    h = spawn(ins[0].recv)
    with pytest.raises(KeyError, match="nosuch"):
        outs[0].send(1)
    conn.close()
    with pytest.raises(Exception):
        h.join(5)


def test_registry_isolated_per_connector():
    reg_a = FunctionRegistry()
    reg_a.register_function("f", lambda x: x + 1)
    reg_b = FunctionRegistry()
    reg_b.register_function("f", lambda x: x - 1)
    src = "T(a;b) = Transform<f>(a;b)"
    ca = compile_source(src).instantiate_connector("T", registry=reg_a)
    cb = compile_source(src).instantiate_connector("T", registry=reg_b)
    assert pump(ca, {0: [10]}, {0: 1})[0] == [11]
    assert pump(cb, {0: [10]}, {0: 1})[0] == [9]


def test_verify_flags_unknown_function():
    from repro.automata.verify import verify_protocol

    protocol = compile_source("T(a;b) = Transform<nosuch>(a;b)").protocol("T")
    report = verify_protocol(protocol)
    assert any(f.check == "unknown-function" for f in report.findings)


def test_fifo1full_custom_token():
    """Fifo1Full<v> seeds the buffer with a custom initial datum."""
    conn = compile_source("P(a;b) = Fifo1Full<7>(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    assert ins[0].recv() == 7  # initial token, before any send
    outs[0].send("next")
    assert ins[0].recv() == "next"
    conn.close()


def test_fifo1full_default_token():
    conn = compile_source("P(a;b) = Fifo1Full(a;b)").instantiate_connector("P")
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    assert ins[0].recv() == "token"
    conn.close()
