"""The 18 parametrizable connectors of the paper's first experiment series.

"We made a comprehensive selection of eighteen connectors, fully covering
the major examples of parametrizable connectors in the Reo literature"
(§V.B).  The paper does not list them (they are in the MSc thesis [29]); we
select the canonical parametrizable families from the literature the thesis
draws on — see DESIGN.md §3 for the table and the per-connector rationale.

Each connector is available in two equivalent forms:

* :func:`build_graph` — direct :class:`~repro.connectors.graph.ConnectorGraph`
  construction for a concrete ``n`` (ground truth for tests);
* :func:`dsl_source` — parametrized textual-DSL source (defined in
  :mod:`repro.connectors.library_dsl`), the paper's new syntax.

:func:`connector` compiles and instantiates one by name through the full
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.connectors.graph import Arc, ConnectorGraph
from repro.util.errors import WellFormednessError


@dataclass(frozen=True)
class BuiltConnector:
    """A concrete connector graph plus its boundary signature."""

    graph: ConnectorGraph
    tails: tuple[str, ...]  # boundary vertices written by task outports
    heads: tuple[str, ...]  # boundary vertices read by task inports

    def validate(self) -> None:
        self.graph.validate(set(self.tails), set(self.heads))


def _g(*arcs: Arc) -> ConnectorGraph:
    graph = ConnectorGraph()
    for a in arcs:
        graph = graph.add(a)
    return graph


def _arc(type_: str, tails, heads, **params) -> Arc:
    return Arc(
        type_,
        tuple(tails),
        tuple(heads),
        tuple(sorted(params.items())),
    )


def _check_n(n: int, minimum: int = 1) -> None:
    if n < minimum:
        raise WellFormednessError(f"connector requires n >= {minimum}, got {n}")


# --------------------------------------------------------------------------
# 1-3: synchronous routing
# --------------------------------------------------------------------------


def merger(n: int) -> BuiltConnector:
    """n producers, 1 consumer; per step one nondeterministically chosen
    producer's datum flows to the consumer."""
    _check_n(n)
    tails = tuple(f"t{i}" for i in range(1, n + 1))
    return BuiltConnector(_g(_arc("merger", tails, ("h",))), tails, ("h",))


def replicator(n: int) -> BuiltConnector:
    """1 producer, n consumers; per step the datum flows synchronously to
    *all* consumers."""
    _check_n(n)
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    return BuiltConnector(_g(_arc("replicator", ("t",), heads)), ("t",), heads)


def router(n: int) -> BuiltConnector:
    """1 producer, n consumers; per step the datum flows to *exactly one*
    nondeterministically chosen consumer (exclusive router)."""
    _check_n(n)
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    return BuiltConnector(_g(_arc("router", ("t",), heads)), ("t",), heads)


# --------------------------------------------------------------------------
# 4-9: early/late asynchronous variants (fifo placement differs)
# --------------------------------------------------------------------------


def early_async_merger(n: int) -> BuiltConnector:
    """A fifo1 per producer, then a merger: producers decouple early.

    The large automaton has 2^n reachable states (every combination of
    full/empty buffers) — a paradigmatic existing-compiler killer."""
    _check_n(n)
    tails = tuple(f"t{i}" for i in range(1, n + 1))
    arcs = [_arc("fifo1", (f"t{i}",), (f"m{i}",)) for i in range(1, n + 1)]
    arcs.append(_arc("merger", tuple(f"m{i}" for i in range(1, n + 1)), ("h",)))
    return BuiltConnector(_g(*arcs), tails, ("h",))


def late_async_merger(n: int) -> BuiltConnector:
    """A merger, then one fifo1: producers still compete synchronously."""
    _check_n(n)
    tails = tuple(f"t{i}" for i in range(1, n + 1))
    return BuiltConnector(
        _g(_arc("merger", tails, ("m",)), _arc("fifo1", ("m",), ("h",))),
        tails,
        ("h",),
    )


def early_async_replicator(n: int) -> BuiltConnector:
    """One fifo1, then a replicator: the producer decouples; consumers
    still receive synchronously."""
    _check_n(n)
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    return BuiltConnector(
        _g(_arc("fifo1", ("t",), ("m",)), _arc("replicator", ("m",), heads)),
        ("t",),
        heads,
    )


def late_async_replicator(n: int) -> BuiltConnector:
    """A replicator, then a fifo1 per consumer: consumers decouple from
    each other (2^n-state automaton)."""
    _check_n(n)
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    arcs = [_arc("replicator", ("t",), tuple(f"m{i}" for i in range(1, n + 1)))]
    arcs += [_arc("fifo1", (f"m{i}",), (f"h{i}",)) for i in range(1, n + 1)]
    return BuiltConnector(_g(*arcs), ("t",), heads)


def early_async_router(n: int) -> BuiltConnector:
    """One fifo1, then an exclusive router."""
    _check_n(n)
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    return BuiltConnector(
        _g(_arc("fifo1", ("t",), ("m",)), _arc("router", ("m",), heads)),
        ("t",),
        heads,
    )


def late_async_router(n: int) -> BuiltConnector:
    """An exclusive router, then a fifo1 per consumer."""
    _check_n(n)
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    arcs = [_arc("router", ("t",), tuple(f"m{i}" for i in range(1, n + 1)))]
    arcs += [_arc("fifo1", (f"m{i}",), (f"h{i}",)) for i in range(1, n + 1)]
    return BuiltConnector(_g(*arcs), ("t",), heads)


# --------------------------------------------------------------------------
# Token-ring machinery (shared by sequencer-based connectors)
# --------------------------------------------------------------------------


def _ring_arcs(n: int, prefix: str = "") -> list[Arc]:
    """A token ring: fifo1s ``s_i -> r_i`` (the first initialized) and
    replicators ``r_i -> (k_i, s_{i+1})`` that expose token availability at
    slot i on vertex ``k_i`` while passing the token on."""
    p = prefix
    arcs = []
    for i in range(1, n + 1):
        ftype = "fifo1_full" if i == 1 else "fifo1"
        arcs.append(_arc(ftype, (f"{p}s{i}",), (f"{p}r{i}",)))
        nxt = i % n + 1
        arcs.append(_arc("replicator", (f"{p}r{i}",), (f"{p}k{i}", f"{p}s{nxt}")))
    return arcs


# --------------------------------------------------------------------------
# 10-13: sequencing connectors
# --------------------------------------------------------------------------


def sequencer(n: int) -> BuiltConnector:
    """n parties may each send only in cyclic order 1, 2, …, n, 1, …

    A token circulates through a ring of fifo1s (the first initialized);
    party i's send synchronizes with the token passing slot i (§III.A's
    standard sequencer)."""
    _check_n(n)
    tails = tuple(f"a{i}" for i in range(1, n + 1))
    arcs = _ring_arcs(n)
    arcs += [_arc("syncdrain", (f"a{i}", f"k{i}"), ()) for i in range(1, n + 1)]
    return BuiltConnector(_g(*arcs), tails, ())


def out_sequencer(n: int) -> BuiltConnector:
    """One producer; n consumers served in strict cyclic order."""
    _check_n(n)
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    arcs = [_arc("router", ("t",), tuple(f"x{i}" for i in range(1, n + 1)))]
    for i in range(1, n + 1):
        arcs.append(_arc("replicator", (f"x{i}",), (f"h{i}", f"w{i}")))
        arcs.append(_arc("syncdrain", (f"w{i}", f"k{i}"), ()))
    arcs += _ring_arcs(n)
    return BuiltConnector(_g(*arcs), ("t",), heads)


def early_async_out_sequencer(n: int) -> BuiltConnector:
    """A fifo1 in front of the out-sequencer: the producer decouples from
    the round-robin delivery."""
    _check_n(n)
    base = out_sequencer(n)
    graph = _g(_arc("fifo1", ("t",), ("u",)))
    for arc in base.graph.arcs:
        if arc.type == "router":
            graph = graph.add(_arc("router", ("u",), arc.heads))
        else:
            graph = graph.add(arc)
    return BuiltConnector(graph, ("t",), base.heads)


def alternator(n: int) -> BuiltConnector:
    """The classic alternator: all n producers write *synchronously* in one
    round; their data is buffered and delivered to the single consumer in
    index order 1, …, n before the next round can start."""
    _check_n(n, minimum=1)
    tails = tuple(f"t{i}" for i in range(1, n + 1))
    if n == 1:
        return BuiltConnector(_g(_arc("fifo1", ("t1",), ("h",))), tails, ("h",))
    arcs = []
    for i in range(1, n + 1):
        copies = [f"c{i}"]
        if i < n:
            copies.append(f"dr{i}")  # drained against the right neighbour
        if i > 1:
            copies.append(f"dl{i}")  # drained against the left neighbour
        arcs.append(_arc("replicator", (f"t{i}",), tuple(copies)))
        arcs.append(_arc("fifo1", (f"c{i}",), (f"f{i}",)))
        arcs.append(_arc("replicator", (f"f{i}",), (f"g{i}", f"w{i}")))
        arcs.append(_arc("syncdrain", (f"w{i}", f"k{i}"), ()))
    for i in range(1, n):
        arcs.append(_arc("syncdrain", (f"dr{i}", f"dl{i + 1}"), ()))
    arcs.append(_arc("merger", tuple(f"g{i}" for i in range(1, n + 1)), ("h",)))
    arcs += _ring_arcs(n)
    return BuiltConnector(_g(*arcs), tails, ("h",))


# --------------------------------------------------------------------------
# 14-16: barriers and locks
# --------------------------------------------------------------------------


def barrier(n: int) -> BuiltConnector:
    """n sender/receiver pairs communicate in lock-step: all 2n ports fire
    in one global step, datum i flowing from sender i to receiver i."""
    _check_n(n)
    tails = tuple(f"t{i}" for i in range(1, n + 1))
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    if n == 1:
        return BuiltConnector(_g(_arc("sync", ("t1",), ("h1",))), tails, heads)
    arcs = []
    for i in range(1, n + 1):
        copies = [f"c{i}"]
        if i < n:
            copies.append(f"dr{i}")
        if i > 1:
            copies.append(f"dl{i}")
        arcs.append(_arc("replicator", (f"t{i}",), tuple(copies)))
        arcs.append(_arc("sync", (f"c{i}",), (f"h{i}",)))
    for i in range(1, n):
        arcs.append(_arc("syncdrain", (f"dr{i}", f"dl{i + 1}"), ()))
    return BuiltConnector(_g(*arcs), tails, heads)


def early_async_barrier_merger(n: int) -> BuiltConnector:
    """Producers write synchronously (barrier), values buffer, then a merger
    emits them one at a time in nondeterministic order."""
    _check_n(n)
    tails = tuple(f"t{i}" for i in range(1, n + 1))
    if n == 1:
        return BuiltConnector(_g(_arc("fifo1", ("t1",), ("h",))), tails, ("h",))
    arcs = []
    for i in range(1, n + 1):
        copies = [f"c{i}"]
        if i < n:
            copies.append(f"dr{i}")
        if i > 1:
            copies.append(f"dl{i}")
        arcs.append(_arc("replicator", (f"t{i}",), tuple(copies)))
        arcs.append(_arc("fifo1", (f"c{i}",), (f"m{i}",)))
    for i in range(1, n):
        arcs.append(_arc("syncdrain", (f"dr{i}", f"dl{i + 1}"), ()))
    arcs.append(_arc("merger", tuple(f"m{i}" for i in range(1, n + 1)), ("h",)))
    return BuiltConnector(_g(*arcs), tails, ("h",))


def lock(n: int) -> BuiltConnector:
    """n-client mutual exclusion: client i acquires by sending on ``a_i``
    and releases by sending on ``r_i``; a token in a central fifo1 (initially
    present) admits one client at a time."""
    _check_n(n)
    tails = tuple(f"a{i}" for i in range(1, n + 1)) + tuple(
        f"r{i}" for i in range(1, n + 1)
    )
    arcs = [
        _arc("fifo1_full", ("s",), ("m",)),
        _arc("router", ("m",), tuple(f"g{i}" for i in range(1, n + 1))),
        _arc("merger", tuple(f"r{i}" for i in range(1, n + 1)), ("s",)),
    ]
    arcs += [_arc("syncdrain", (f"a{i}", f"g{i}"), ()) for i in range(1, n + 1)]
    return BuiltConnector(_g(*arcs), tails, ())


# --------------------------------------------------------------------------
# 17-18: pipelines and the paper's running example
# --------------------------------------------------------------------------


def fifo_chain(n: int) -> BuiltConnector:
    """A pipeline of n fifo1s — a bounded buffer of capacity n with
    2^n-state large automaton (all combinations reachable)."""
    _check_n(n)
    arcs = [_arc("fifo1", (f"x{i - 1}",), (f"x{i}",)) for i in range(1, n + 1)]
    return BuiltConnector(_g(*arcs), ("x0",), (f"x{n}",))


def sequenced_merger(n: int) -> BuiltConnector:
    """The paper's running example ``ConnectorEx11N`` (Fig. 9): task C
    receives one message from each of N producers *in fixed order*
     1, …, N, cyclically; producer i+1's send cannot complete before
    consumer-side delivery of producer i's message has been set up.

    For n == 1 this degenerates to a single fifo1, exactly as Fig. 9's
    conditional prescribes."""
    _check_n(n)
    tails = tuple(f"t{i}" for i in range(1, n + 1))
    heads = tuple(f"h{i}" for i in range(1, n + 1))
    if n == 1:
        return BuiltConnector(_g(_arc("fifo1", ("t1",), ("h1",))), tails, heads)
    arcs = []
    for i in range(1, n + 1):
        # X(tl;prev,next,hd) = Repl2(tl;prev,v) mult Fifo1(v;w)
        #                      mult Repl2(w;next,hd)           (Fig. 8, 11-12)
        arcs.append(_arc("replicator", (f"t{i}",), (f"prev{i}", f"v{i}")))
        arcs.append(_arc("fifo1", (f"v{i}",), (f"w{i}",)))
        arcs.append(_arc("replicator", (f"w{i}",), (f"next{i}", f"h{i}")))
    for i in range(1, n):
        arcs.append(_arc("seq", (f"next{i}", f"prev{i + 1}"), ()))
    arcs.append(_arc("seq", (f"prev1", f"next{n}"), ()))
    return BuiltConnector(_g(*arcs), tails, heads)


# --------------------------------------------------------------------------
# Registry
# --------------------------------------------------------------------------

BUILDERS: dict[str, Callable[[int], BuiltConnector]] = {
    "Merger": merger,
    "Replicator": replicator,
    "Router": router,
    "EarlyAsyncMerger": early_async_merger,
    "LateAsyncMerger": late_async_merger,
    "EarlyAsyncReplicator": early_async_replicator,
    "LateAsyncReplicator": late_async_replicator,
    "EarlyAsyncRouter": early_async_router,
    "LateAsyncRouter": late_async_router,
    "Sequencer": sequencer,
    "OutSequencer": out_sequencer,
    "EarlyAsyncOutSequencer": early_async_out_sequencer,
    "Alternator": alternator,
    "Barrier": barrier,
    "EarlyAsyncBarrierMerger": early_async_barrier_merger,
    "Lock": lock,
    "FifoChain": fifo_chain,
    "SequencedMerger": sequenced_merger,
}


def names() -> tuple[str, ...]:
    """The 18 connector names, in DESIGN.md order."""
    return tuple(BUILDERS)


def build_graph(name: str, n: int) -> BuiltConnector:
    """Construct connector ``name`` for ``n`` parties as a validated graph."""
    try:
        builder = BUILDERS[name]
    except KeyError:
        raise KeyError(
            f"unknown connector {name!r}; available: {', '.join(BUILDERS)}"
        ) from None
    built = builder(n)
    built.validate()
    return built


def dsl_source(name: str, n: int | None = None) -> str:
    """The parametrized textual-DSL source for connector ``name``.

    ``FifoChain`` is the one connector parametrized by pipeline *depth*
    rather than by a number of connectees; the textual syntax parametrizes
    only over array lengths, so its source is generated per ``n`` (pass it).
    """
    from repro.connectors.library_dsl import DSL_SOURCES, fifo_chain_source

    if name == "FifoChain":
        if n is None:
            raise ValueError("FifoChain's DSL source is depth-specific; pass n")
        return fifo_chain_source(n)
    return DSL_SOURCES[name]


def connector(name: str, n: int, from_dsl: bool = True, **options):
    """Compile and instantiate connector ``name`` for ``n`` parties.

    With ``from_dsl=True`` (default) the parametrized DSL source is compiled
    with the paper's new approach and instantiated at run time; otherwise
    the directly built graph is used.  ``options`` are forwarded to
    :class:`repro.runtime.connector.RuntimeConnector`.
    """
    if from_dsl:
        # The parametrized approach compiles once for all n ("with the new
        # compiler, only one compilation was necessary", §V.B):
        # compile_source memoises by source text, and FifoChain's text is
        # per-depth (see dsl_source).
        from repro.compiler import compile_source

        program = compile_source(dsl_source(name, n))
        return program.instantiate_connector(name=name, sizes=n, **options)
    from repro.compiler.fromgraph import connector_from_graph

    return connector_from_graph(build_graph(name, n), name=name, **options)
