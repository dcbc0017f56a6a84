"""The existing compilation approach (paper §III.B), for comparison.

The prior Reo compiler requires the whole connector — hence the number of
connectees — at compile time: it instantiates every primitive, composes all
small automata into one "large automaton" (Eq. 1), and applies its
optimizations (transition-local command compilation, §V.B point 1, and the
transition-global index, §V.B point 2) ahead of time.

"With the existing compiler, we needed to compile the connector six times,
once for every value of N; with the new compiler, only one compilation was
necessary" (§V.B) — accordingly, :func:`compile_existing` takes concrete
``sizes`` and must be re-run per N.  Composition is bounded by
``state_budget``; exceeding it raises
:class:`~repro.util.errors.CompilationBudgetExceeded`, modelling the cases
in which "the existing approach failed, while the new approach worked fine".
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.automata.automaton import ConstraintAutomaton
from repro.automata.product import DEFAULT_STATE_BUDGET, product
from repro.compiler.parametrized import compile_program, compile_source
from repro.lang import ast
from repro.lang.parser import parse


@dataclass
class ExistingCompilation:
    """Artifact of the existing approach: one large automaton, fixed N."""

    name: str
    automaton: ConstraintAutomaton
    tail_vertices: list[str]
    head_vertices: list[str]

    def instantiate_connector(self, **options):
        """An ahead-of-time connector over the precomposed large automaton."""
        from repro.runtime.connector import RuntimeConnector

        options.setdefault("name", self.name)
        options.setdefault("composition", "aot")
        return RuntimeConnector(
            [self.automaton],
            self.tail_vertices,
            self.head_vertices,
            **options,
        )


def compile_existing(
    source_or_program: "str | ast.Program",
    name: str | None = None,
    sizes=None,
    state_budget: int | None = DEFAULT_STATE_BUDGET,
    time_budget_s: float | None = None,
) -> ExistingCompilation:
    """Compile a definition for a *fixed* number of connectees.

    Internally reuses the parametrized front-end to instantiate all
    primitives (the two front-ends coincide once N is fixed, §IV.C), then
    eagerly composes the large automaton.
    """
    if isinstance(source_or_program, str):
        compiled = compile_source(source_or_program)
    else:
        compiled = compile_program(source_or_program)
    protocol = compiled.protocol(name)
    bindings = protocol.default_bindings(sizes if sizes is not None else {})
    smalls = protocol.automata_for(bindings, granularity="small")
    large = product(
        smalls,
        state_budget=state_budget,
        name=protocol.name,
        time_budget_s=time_budget_s,
    )
    tails, heads = protocol.boundary_vertices(bindings)
    # Hide internal vertices: the large automaton's labels keep only the
    # boundary (the data constraints still carry the internal flows).
    internal = large.vertices - frozenset(tails) - frozenset(heads)
    large = large.hide(internal)
    return ExistingCompilation(protocol.name, large, tails, heads)


__all__ = ["ExistingCompilation", "compile_existing", "parse"]
