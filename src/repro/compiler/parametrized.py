"""The new, parametrized compilation approach (paper §IV.C).

"What can be done at compile-time, is done at compile-time; only the work
that depends on the number of connectees is deferred to run-time."

Per connector definition: flatten (inline composites, rename locals) →
normalize (constituents | iterations | conditionals) → translate each
normalized level into a :class:`~repro.compiler.plan.PlanNode`, composing
each section's connected primitive groups into medium-automaton templates.

This strictly generalizes the existing approach: "for connector definitions
without arrays, conditionals, and iterations, the two approaches coincide"
— a definition with neither prods nor ifs compiles to a single plan level
whose templates already are the fully composed automaton (up to the
independent-group split)."""

from __future__ import annotations

from repro.compiler.plan import (
    CompiledProgram,
    CompiledProtocol,
    MediumTemplate,
    PlanCond,
    PlanNode,
    PlanProd,
    group_prims,
)
from repro.lang import ast
from repro.lang.flatten import flatten
from repro.lang.normalize import NormalForm, normalize
from repro.lang.parser import parse
from repro.util.errors import CompilationError


def _plan_of(nf: NormalForm, defname: str) -> PlanNode:
    node = PlanNode()
    for k, group in enumerate(group_prims(nf.prims)):
        node.templates.append(MediumTemplate(group, name=f"{defname}#{k}"))
    for p in nf.prods:
        node.prods.append(PlanProd(p.var, p.lo, p.hi, _plan_of(p.body, defname)))
    for c in nf.conds:
        node.conds.append(
            PlanCond(
                c.cond,
                _plan_of(c.then, defname),
                _plan_of(c.els, defname) if c.els is not None else None,
            )
        )
    return node


def compile_def(program: ast.Program, defname: str) -> CompiledProtocol:
    """Compile one definition of ``program`` with the parametrized approach."""
    d = program.defs[defname]
    flat = flatten(program, defname)
    nf = normalize(flat)
    plan = _plan_of(nf, defname)
    return CompiledProtocol(d.name, d.tails, d.heads, plan)


def compile_program(program: ast.Program) -> CompiledProgram:
    """Compile every definition of a parsed program."""
    protocols = {name: compile_def(program, name) for name in program.defs}
    return CompiledProgram(protocols, program)


#: Bound on :func:`compile_source`'s memo (distinct source texts); over it
#: everything is dropped and recompiled on demand, like ``product.MEMO_CAP``.
PROGRAM_CAP = 256
_programs: dict[str, CompiledProgram] = {}


def compile_source(source: str) -> CompiledProgram:
    """Parse and compile DSL ``source`` (the paper's text-to-code compiler,
    Python edition), once per process and source text — "only one
    compilation was necessary" (§V.B); the program owns what is derived
    from it per arity (:meth:`CompiledProtocol.automata_for`)."""
    program = _programs.get(source)
    if program is None:
        if len(_programs) >= PROGRAM_CAP:
            _programs.clear()
        program = _programs[source] = compile_program(parse(source))
    return program


def shrink_bindings(
    protocol: CompiledProtocol,
    bindings: dict[str, str | list[str]],
    departing: set[str],
) -> tuple[dict[str, str | list[str]], dict[str, str], dict[int, int] | None]:
    """Re-parametrization arithmetic: remove boundary vertices, shrink arities.

    This is the compile-side half of run-time re-parametrization (the paper
    fixes a connector's number of tasks at *run time*; here we change it
    *during* the run): given a protocol's current ``bindings`` and the set
    of ``departing`` boundary vertices, compute

    * ``new_bindings`` — default bindings at the reduced array lengths,
      ready for :meth:`CompiledProtocol.automata_for`;
    * ``vertex_map`` — every surviving old boundary vertex → its new name
      (survivors keep their *position order*, so party ``k+1`` of ``n``
      becomes party ``k`` of ``n−1``);
    * ``index_map`` — surviving old 1-based iteration index → new index,
      for remapping singly-indexed internal vertex/buffer names; ``None``
      when the departure pattern differs between array parameters (an
      unambiguous shift does not exist then).

    Raises :class:`CompilationError` when a departing vertex is bound to a
    scalar parameter (a scalar cannot be removed), would empty an array
    (the paper stipulates arrays are nonempty), or is not a boundary vertex
    of these bindings at all.
    """
    departing = set(departing)
    unseen = set(departing)
    new_sizes: dict[str, int] = {}
    removed_positions: dict[str, list[int]] = {}
    for p in protocol.params:
        bound = bindings[p.name]
        if isinstance(bound, list):
            positions = [i for i, v in enumerate(bound, 1) if v in departing]
            unseen -= {bound[i - 1] for i in positions}
            removed_positions[p.name] = positions
            new_len = len(bound) - len(positions)
            if new_len < 1:
                raise CompilationError(
                    f"removing {sorted(departing)} would empty array "
                    f"parameter {p.name!r} of {protocol.name!r}"
                )
            new_sizes[p.name] = new_len
        elif bound in departing:
            raise CompilationError(
                f"vertex {bound!r} is bound to scalar parameter {p.name!r} "
                f"of {protocol.name!r}; scalars cannot leave"
            )
    if unseen:
        raise CompilationError(
            f"vertices {sorted(unseen)} are not boundary vertices of "
            f"{protocol.name!r} under the current bindings"
        )

    new_bindings = protocol.default_bindings(new_sizes)
    vertex_map: dict[str, str] = {}
    for p in protocol.params:
        old = bindings[p.name]
        new = new_bindings[p.name]
        if isinstance(old, list):
            survivors = [v for v in old if v not in departing]
            vertex_map.update(zip(survivors, new))
        else:
            vertex_map[old] = new

    # One consistent index shift exists iff every array parameter lost the
    # same positions (the common case: one logical party owns index k in
    # every array).  Parameters that lost nothing don't constrain the shift
    # unless *all* lost nothing, in which case it is the identity on the
    # longest parameter's range.
    position_sets = {
        tuple(v) for v in removed_positions.values() if v
    }
    index_map: dict[int, int] | None
    if len(position_sets) > 1:
        index_map = None
    else:
        removed = set(next(iter(position_sets))) if position_sets else set()
        longest = max(
            (len(b) for b in bindings.values() if isinstance(b, list)),
            default=0,
        )
        index_map = {}
        new_i = 0
        for old_i in range(1, longest + 1):
            if old_i in removed:
                continue
            new_i += 1
            index_map[old_i] = new_i
    return new_bindings, vertex_map, index_map
