"""Data-constraint terms/atoms: renaming, hashability, registry."""

import pytest

from repro.automata.constraint import (
    App,
    Buf,
    Const,
    DEFAULT_REGISTRY,
    Eq,
    FunctionRegistry,
    NotEmpty,
    NotFull,
    Pop,
    Pred,
    Push,
    V,
    rename_atom,
    rename_effect,
    rename_term,
    term_buffers,
    term_vertices,
)


def test_terms_hashable_and_equal():
    assert V("a") == V("a")
    assert hash(Eq(V("a"), Buf("q"))) == hash(Eq(V("a"), Buf("q")))
    assert App("f", V("a")) != App("g", V("a"))


def test_rename_term_nested():
    t = App("f", App("g", V("x")))
    renamed = rename_term(t, {"x": "y"}, {})
    assert renamed == App("f", App("g", V("y")))


def test_rename_term_buffer():
    assert rename_term(Buf("q"), {}, {"q": "p"}) == Buf("p")
    assert rename_term(Const(3), {"x": "y"}, {}) == Const(3)


def test_rename_atom_all_kinds():
    vmap, bmap = {"a": "A"}, {"q": "Q"}
    assert rename_atom(Eq(V("a"), Buf("q")), vmap, bmap) == Eq(V("A"), Buf("Q"))
    assert rename_atom(Pred("p", V("a"), True), vmap, bmap) == Pred("p", V("A"), True)
    assert rename_atom(NotFull("q"), vmap, bmap) == NotFull("Q")
    assert rename_atom(NotEmpty("q"), vmap, bmap) == NotEmpty("Q")


def test_rename_effect():
    assert rename_effect(Push("q", V("a")), {"a": "b"}, {"q": "p"}) == Push("p", V("b"))
    assert rename_effect(Pop("q"), {}, {"q": "p"}) == Pop("p")


def test_term_vertices_and_buffers():
    t = App("f", V("x"))
    assert term_vertices(t) == frozenset({"x"})
    assert term_buffers(t) == frozenset()
    assert term_buffers(App("f", Buf("q"))) == frozenset({"q"})
    assert term_vertices(Const(0)) == frozenset()


def test_registry_lookup_and_missing():
    reg = FunctionRegistry()
    reg.register_function("inc", lambda x: x + 1)
    reg.register_predicate("even", lambda x: x % 2 == 0)
    assert reg.function("inc")(1) == 2
    assert reg.predicate("even")(4)
    with pytest.raises(KeyError):
        reg.function("nope")
    with pytest.raises(KeyError):
        reg.predicate("nope")


def test_registry_merge():
    a = FunctionRegistry()
    a.register_function("f", lambda x: 1)
    b = FunctionRegistry()
    b.register_function("f", lambda x: 2)
    b.register_predicate("p", lambda x: True)
    merged = a.merged_with(b)
    assert merged.function("f")(0) == 2  # other wins
    assert merged.predicate("p")(0)
    # originals untouched
    assert a.function("f")(0) == 1


def test_default_registry_has_identity():
    assert DEFAULT_REGISTRY.function("identity")(7) == 7
    assert DEFAULT_REGISTRY.predicate("true")(None)
    assert not DEFAULT_REGISTRY.predicate("false")(None)


# --------------------------------------------------------------------------
# The hash the classes holding a term keep
# --------------------------------------------------------------------------

SAMPLES = (
    V("a"), Buf("q"), Const(3), App("f", App("g", V("a"))),
    Eq(V("a"), App("f", Buf("q"))), Pred("p", V("a"), negate=True),
    NotFull("q"), NotEmpty("q"), Push("q", V("a")), Pop("q"),
)


@pytest.mark.parametrize("x", SAMPLES, ids=lambda x: type(x).__name__)
def test_a_kept_hash_is_the_value_hash(x):
    from dataclasses import fields

    first = hash(x)
    assert first == hash(tuple(getattr(x, f.name) for f in fields(x)))
    assert hash(x) == first
    twin = type(x)(*(getattr(x, f.name) for f in fields(x)))
    assert twin == x and hash(twin) == first
    assert {x: 1}[twin] == 1


def test_only_the_classes_holding_a_term_keep_a_hash():
    kept = {type(x).__name__ for x in SAMPLES if hasattr(x, "_hash")}
    assert kept == {"App", "Eq", "Pred", "Push"}
    x = Eq(V("a"), App("f", Buf("q")))
    assert x._hash == hash((V("a"), App("f", Buf("q"))))


def test_a_const_of_an_unhashable_value_constructs():
    c = Const([1])
    assert c == Const([1]) and c.value == [1]
    p = Push("q", c)  # a class that keeps its hash, holding it
    assert p == Push("q", Const([1])) and p._hash is None
    for x in (c, p, Eq(V("a"), c)):
        with pytest.raises(TypeError):
            hash(x)


def test_a_pickled_term_carries_no_hash_into_another_process():
    """A string hashes differently under another ``PYTHONHASHSEED``: a term
    loaded there must hash as one built there, not as it did here."""
    import os
    import pickle
    import subprocess
    import sys

    x = Eq(V("a"), App("f", Buf("q")))
    here = hash(x)  # kept on x and on its App
    code = (
        "import pickle, sys\n"
        "from repro.automata.constraint import App, Buf, Eq, V\n"
        "x = pickle.loads(sys.stdin.buffer.read())\n"
        "fresh = Eq(V('a'), App('f', Buf('q')))\n"
        "assert x == fresh and hash(x) == hash(fresh), (hash(x), hash(fresh))\n"
        "assert x._hash == fresh._hash and x.right._hash == fresh.right._hash\n"
        "print(hash(x))\n"
    )
    src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
    seen = set()
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.abspath(src))
        out = subprocess.run([sys.executable, "-c", code],
                             input=pickle.dumps(x), env=env,
                             capture_output=True, check=True)
        seen.add(int(out.stdout))
    seen.add(here)
    assert len(seen) > 1  # the seeds do change the hash
    assert hash(x) == here
