"""Compiled-protocol plans: the artifact of parametrized compilation.

A :class:`CompiledProtocol` is the Python analogue of the generated Java
class of the paper's Fig. 10: the compile-time share of the work (flattening,
normalization, medium-automaton composition) is already done; what remains —
evaluating iterations and conditionals against the actual numbers of
connectees, and substituting concrete vertex names into the medium-automaton
templates — happens in :meth:`CompiledProtocol.automata_for`, called at
``connect`` time.

The plan tree mirrors the normal form: each :class:`PlanNode` has an
optional constituents section (one or more :class:`MediumTemplate`, one per
connected group of primitives), then iteration nodes, then conditionals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import prod

from repro.automata.automaton import ConstraintAutomaton
from repro.automata.product import product
from repro.connectors.graph import Arc
from repro.connectors.primitives import build_automaton
from repro.lang import ast
from repro.lang.flatten import FPrim, NameExpr
from repro.lang.interp import Env, eval_aexpr, eval_bexpr
from repro.util.errors import CompilationError, CompileError, ScopeError
from repro.util.unionfind import UnionFind

#: State budget for composing one template's primitive group at compile time,
#: held against the product of the members' state counts.  Groups are
#: connected clusters within one section of one definition body — a handful
#: of primitives — so this is generous.
TEMPLATE_STATE_BUDGET = 4096

#: Bound on one protocol's memo of instantiated automata (distinct bindings
#: × granularity); over it the memo is dropped and refilled on demand.
AUTOMATA_CAP = 32


def resolve_name(
    ne: NameExpr, env: Env, ports: dict[str, str | list[str]]
) -> str:
    """Evaluate a symbolic name to a concrete vertex/buffer id.

    Formal bases resolve through ``ports`` (1-based indexing into arrays);
    local bases get their evaluated indices appended after ``@``.
    """
    values = [eval_aexpr(i, env) for i in ne.indices]
    if ne.formal:
        target = ports[ne.base]
        if isinstance(target, list):
            if len(values) != 1:
                raise ScopeError(
                    f"array parameter {ne.base!r} needs exactly one index, "
                    f"got {len(values)}"
                )
            idx = values[0]
            if not (1 <= idx <= len(target)):
                raise ScopeError(
                    f"index {idx} out of range 1..{len(target)} for array "
                    f"parameter {ne.base!r}"
                )
            return target[idx - 1]
        if values:
            raise ScopeError(f"scalar parameter {ne.base!r} cannot be indexed")
        return target
    if values:
        return ne.base + "@" + ",".join(map(str, values))
    return ne.base


class MediumTemplate:
    """A compile-time-composed "medium automaton" over symbolic names.

    ``fprims`` is the connected group of primitives it covers; ``automaton``
    is their product over canonical symbolic names (textbook/maximal mode,
    so that later run-time composition of mediums — which uses minimal-step
    enumeration — loses no joint behaviour).

    "Compose as many of them as possible" (§IV.C): a group whose product
    could exceed the compile-time state budget — the product of its
    members' state counts is over it (e.g. a long fifo chain written
    without iteration, 2^n states) — is kept *uncomposed* — ``automaton`` is
    ``None`` and instantiation yields the small automata, which the run-time
    (just-in-time) composition handles instead.
    """

    def __init__(self, fprims: list[FPrim], name: str = ""):
        self.fprims = tuple(fprims)
        self.name = name
        self.vertex_exprs: dict[str, NameExpr] = {}
        self.buffer_exprs: dict[str, NameExpr] = {}
        smalls: list[ConstraintAutomaton] = []
        for fp in self.fprims:
            for ne in fp.tails + fp.heads:
                self.vertex_exprs.setdefault(ne.canonical(), ne)
            if fp.buffer is not None:
                self.buffer_exprs.setdefault(fp.buffer.canonical(), fp.buffer)
            smalls.append(self._small_automaton(fp, symbolic=True))
        self.symbolic_smalls = tuple(smalls)
        # The members' state counts bound the product's: refusing on that
        # bound costs nothing, where finding the overflow by composing costs
        # an exponential enumeration per state.
        self.automaton: ConstraintAutomaton | None = None
        if prod(a.n_states for a in smalls) <= TEMPLATE_STATE_BUDGET:
            self.automaton = product(
                smalls, mode="maximal", state_budget=None, name=name)

    @staticmethod
    def _small_automaton(fp: FPrim, symbolic: bool, env: Env | None = None,
                         ports: dict | None = None) -> ConstraintAutomaton:
        if symbolic:
            tails = tuple(t.canonical() for t in fp.tails)
            heads = tuple(h.canonical() for h in fp.heads)
            buffer = fp.buffer.canonical() if fp.buffer is not None else "__nobuf"
        else:
            tails = tuple(resolve_name(t, env, ports) for t in fp.tails)
            heads = tuple(resolve_name(h, env, ports) for h in fp.heads)
            buffer = (
                resolve_name(fp.buffer, env, ports)
                if fp.buffer is not None
                else "__nobuf"
            )
        arc = Arc(fp.ptype, tails, heads, fp.params)
        return build_automaton(arc, buffer)

    # -- instantiation --------------------------------------------------------

    def instantiate_medium(
        self, env: Env, ports: dict[str, str | list[str]]
    ) -> list[ConstraintAutomaton]:
        if self.automaton is None:
            # uncomposed group (over budget): hand the smalls to the runtime
            return self.instantiate_smalls(env, ports)
        vmap = {
            canon: resolve_name(ne, env, ports)
            for canon, ne in self.vertex_exprs.items()
        }
        bmap = {
            canon: resolve_name(ne, env, ports)
            for canon, ne in self.buffer_exprs.items()
        }
        if len(set(vmap.values())) != len(vmap) or len(set(bmap.values())) != len(bmap):
            # Index aliasing: two symbolic names resolved to the same concrete
            # vertex/buffer.  Renaming inside the precomposed product would be
            # unsound (the product treated them as independent), so recompose
            # from concrete small automata instead.  Rare — it needs a
            # definition whose index expressions collide for this particular
            # instantiation.
            return [
                product(
                    self.instantiate_smalls(env, ports),
                    mode="maximal",
                    state_budget=TEMPLATE_STATE_BUDGET,
                    name=self.name,
                )
            ]
        return [self.automaton.renamed(vmap, bmap)]

    def instantiate_smalls(
        self, env: Env, ports: dict[str, str | list[str]]
    ) -> list[ConstraintAutomaton]:
        return [
            self._small_automaton(fp, symbolic=False, env=env, ports=ports)
            for fp in self.fprims
        ]

    def __repr__(self) -> str:
        if self.automaton is None:
            return f"MediumTemplate(uncomposed, {len(self.fprims)} prims)"
        return (
            f"MediumTemplate({len(self.fprims)} prims, "
            f"{self.automaton.n_states} states)"
        )


def group_prims(fprims: list[FPrim]) -> list[list[FPrim]]:
    """Split a section's primitives into connected groups (shared canonical
    vertices) — "compose as many of them as possible" without creating
    joint transitions between provably independent primitives."""
    uf = UnionFind(range(len(fprims)))
    owner: dict[str, int] = {}
    for i, fp in enumerate(fprims):
        for ne in fp.tails + fp.heads:
            c = ne.canonical()
            if c in owner:
                uf.union(owner[c], i)
            else:
                owner[c] = i
    groups: dict[int, list[FPrim]] = {}
    order: list[int] = []
    for i, fp in enumerate(fprims):
        root = uf.find(i)
        if root not in groups:
            groups[root] = []
            order.append(root)
        groups[root].append(fp)
    return [groups[r] for r in order]


@dataclass
class PlanProd:
    var: str
    lo: ast.AExpr
    hi: ast.AExpr
    body: "PlanNode"


@dataclass
class PlanCond:
    cond: ast.BExpr
    then: "PlanNode"
    els: "PlanNode | None"


@dataclass
class PlanNode:
    """One normalized level: templates, then iterations, then conditionals."""

    templates: list[MediumTemplate] = field(default_factory=list)
    prods: list[PlanProd] = field(default_factory=list)
    conds: list[PlanCond] = field(default_factory=list)

    def instantiate(
        self,
        env: Env,
        ports: dict[str, str | list[str]],
        granularity: str,
        out: list[ConstraintAutomaton],
    ) -> None:
        for template in self.templates:
            if granularity == "medium":
                out.extend(template.instantiate_medium(env, ports))
            elif granularity == "small":
                out.extend(template.instantiate_smalls(env, ports))
            else:
                raise CompileError(f"unknown granularity {granularity!r}")
        for p in self.prods:
            lo = eval_aexpr(p.lo, env)
            hi = eval_aexpr(p.hi, env)
            for i in range(lo, hi + 1):
                p.body.instantiate(env.bind(p.var, i), ports, granularity, out)
        for c in self.conds:
            if eval_bexpr(c.cond, env):
                c.then.instantiate(env, ports, granularity, out)
            elif c.els is not None:
                c.els.instantiate(env, ports, granularity, out)


class CompiledProtocol:
    """A compiled connector definition, ready for run-time instantiation."""

    def __init__(
        self,
        name: str,
        tails: tuple[ast.Param, ...],
        heads: tuple[ast.Param, ...],
        plan: PlanNode,
    ):
        self.name = name
        self.tails = tails
        self.heads = heads
        self.plan = plan
        self._automata: dict[tuple, tuple[ConstraintAutomaton, ...]] = {}

    @property
    def params(self) -> tuple[ast.Param, ...]:
        return self.tails + self.heads

    # -- vertex/port bookkeeping ------------------------------------------------

    def default_bindings(self, sizes) -> dict[str, str | list[str]]:
        """Create concrete boundary vertex ids for every formal parameter.

        ``sizes``: an int (used for every array parameter) or a mapping
        ``{param_name: length}``.
        """
        bindings: dict[str, str | list[str]] = {}
        for p in self.params:
            if p.is_array:
                if isinstance(sizes, int):
                    length = sizes
                elif isinstance(sizes, dict) and p.name in sizes:
                    length = sizes[p.name]
                else:
                    raise ScopeError(
                        f"no length given for array parameter {p.name!r} of "
                        f"{self.name!r}"
                    )
                if length < 1:
                    raise ScopeError(
                        f"array parameter {p.name!r} must be nonempty "
                        f"(the paper stipulates arrays are nonempty)"
                    )
                bindings[p.name] = [f"{p.name}@{i}" for i in range(1, length + 1)]
            else:
                bindings[p.name] = p.name
        return bindings

    def _env_for(self, bindings: dict[str, str | list[str]]) -> Env:
        lengths = {
            name: len(v) for name, v in bindings.items() if isinstance(v, list)
        }
        return Env(lengths=lengths)

    def boundary_vertices(
        self, bindings: dict[str, str | list[str]]
    ) -> tuple[list[str], list[str]]:
        """Flattened (tail_vertices, head_vertices) in signature order."""

        def flat(params):
            out: list[str] = []
            for p in params:
                v = bindings[p.name]
                out.extend(v if isinstance(v, list) else [v])
            return out

        return flat(self.tails), flat(self.heads)

    # -- instantiation ----------------------------------------------------------

    def automata_for(
        self,
        bindings: dict[str, str | list[str]],
        granularity: str = "medium",
    ) -> list[ConstraintAutomaton]:
        """Evaluate the plan: the run-time share of parametrized compilation,
        once per ``(bindings, granularity)``.  The automata are immutable, so
        instances share them (``leave()``'s reduced arity is one more key);
        the memo lives and dies with this protocol."""
        key = (granularity, *(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in bindings.items()))
        hit = self._automata.get(key)
        if hit is None:
            out: list[ConstraintAutomaton] = []
            self.plan.instantiate(self._env_for(bindings), bindings, granularity, out)
            if not out:
                raise CompilationError(
                    f"{self.name}: instantiation produced no constituents "
                    "(all conditionals false?)"
                )
            if len(self._automata) >= AUTOMATA_CAP:
                self._automata.clear()
            hit = self._automata[key] = tuple(out)
        return list(hit)

    def instantiate_connector(
        self,
        sizes=None,
        bindings: dict[str, str | list[str]] | None = None,
        **options,
    ):
        """Build a :class:`~repro.runtime.connector.RuntimeConnector` over
        the medium automata at ``bindings``.

        ``options`` are forwarded to ``RuntimeConnector`` (``composition``,
        ``cache_factory``, …).
        """
        from repro.runtime.connector import RuntimeConnector

        if bindings is None:
            bindings = self.default_bindings(sizes if sizes is not None else {})
        automata = self.automata_for(bindings)
        tails, heads = self.boundary_vertices(bindings)
        options.setdefault("name", self.name)
        conn = RuntimeConnector(automata, tails, heads, **options)
        # Remember the compiled protocol behind this instance: run-time
        # re-parametrization (RuntimeConnector.leave) re-evaluates the plan
        # at the reduced arity.
        conn.bind_protocol(self, bindings)
        return conn


class CompiledProgram:
    """All compiled definitions of one source file, plus its ``main``."""

    def __init__(
        self,
        protocols: dict[str, CompiledProtocol],
        program: ast.Program,
    ):
        self.protocols = protocols
        self.program = program

    @property
    def main(self) -> ast.MainDef | None:
        return self.program.main

    def protocol(self, name: str | None = None) -> CompiledProtocol:
        """Look up a compiled protocol; defaults to ``main``'s connector, or
        the sole definition."""
        if name is None:
            if self.main is not None:
                name = self.main.connector.name
            elif len(self.protocols) == 1:
                name = next(iter(self.protocols))
            else:
                raise ScopeError(
                    "program has several definitions and no main; pass a name"
                )
        try:
            return self.protocols[name]
        except KeyError:
            raise ScopeError(f"no compiled protocol named {name!r}") from None

    def instantiate_connector(self, name: str | None = None, sizes=None, **options):
        return self.protocol(name).instantiate_connector(sizes=sizes, **options)
