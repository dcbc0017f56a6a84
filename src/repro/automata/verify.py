"""Compile-time protocol verification (stand-in for Reo's model checkers).

The paper leans on Reo's verification toolchain: "the connectors can
subsequently be formally verified through model checking (e.g., to prove
deadlock freedom or temporal logic properties), fully automatically" (§II).
This module provides the automatic checks that are possible inside this
library: it composes a compiled protocol for a concrete size (within a
budget) and analyses the result.

Checks (control-level; buffer guards are over-approximated, which makes the
structural checks *sound for rejection*: a reported structural deadlock or
dead port is real at the control level, while guard-dependent stalls can
slip through — exactly the precision/automation trade-off the external
model checkers resolve with full state semantics):

* ``structural-deadlock`` — a reachable state with no outgoing transitions;
* ``dead-port`` — a boundary vertex that occurs in no reachable transition
  (a task operation on it can never complete);
* ``unplannable-transition`` — a reachable transition whose data constraint
  cannot be compiled into a firing plan (e.g. a buffer push of a value with
  no source — typically a vertex nothing ever writes);
* ``unknown-function`` — a transition references a function/predicate name
  absent from the registry (warning: it may be registered at run time);
* ``non-reactive-state`` — a reachable state whose every outgoing step is
  internal (τ): tasks can never influence progress from there (flagged as
  info, it may be intended);
* ``state-space`` — size statistics, for capacity planning.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.automata.analysis import deadlock_states, explore, stats
from repro.automata.constraint import DEFAULT_REGISTRY, FunctionRegistry
from repro.automata.product import product
from repro.automata.simplify import commandify
from repro.util.errors import CompilationBudgetExceeded, ConstraintError


@dataclass(frozen=True)
class Finding:
    kind: str  # 'error' | 'warning' | 'info'
    check: str
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.check}: {self.message}"


@dataclass
class VerificationReport:
    protocol: str
    sizes: object
    findings: list[Finding] = field(default_factory=list)
    n_states: int = 0
    n_transitions: int = 0
    exhaustive: bool = True

    @property
    def ok(self) -> bool:
        """True when no error-level finding was produced."""
        return not any(f.kind == "error" for f in self.findings)

    def render(self) -> str:
        lines = [
            f"verification of {self.protocol} (sizes={self.sizes}): "
            f"{'OK' if self.ok else 'PROBLEMS FOUND'}",
            f"  explored {self.n_states} states, {self.n_transitions} "
            f"transitions"
            + ("" if self.exhaustive else "  [budget hit: NOT exhaustive]"),
        ]
        lines += [f"  {f}" for f in self.findings]
        return "\n".join(lines)


def verify_protocol(
    protocol,
    sizes=None,
    state_budget: int = 50_000,
    registry: FunctionRegistry | None = None,
) -> VerificationReport:
    """Verify a :class:`~repro.compiler.plan.CompiledProtocol` at a size.

    Composes the full automaton (like the existing approach, §III.B) within
    ``state_budget`` and runs the checks above.
    """
    bindings = protocol.default_bindings(sizes if sizes is not None else {})
    tails, heads = protocol.boundary_vertices(bindings)
    boundary = set(tails) | set(heads)
    report = VerificationReport(protocol.name, sizes)

    smalls = protocol.automata_for(bindings, granularity="small")
    try:
        large = product(smalls, state_budget=state_budget)
    except CompilationBudgetExceeded as exc:
        report.exhaustive = False
        report.findings.append(
            Finding(
                "warning",
                "state-space",
                f"composition exceeded the {state_budget}-state budget "
                f"({exc}); checks skipped — try a smaller size or raise the "
                "budget",
            )
        )
        return report

    s = stats(large)
    report.n_states = s.n_reachable
    report.n_transitions = s.n_transitions

    # structural deadlocks
    stuck = deadlock_states(large)
    if stuck:
        report.findings.append(
            Finding(
                "error",
                "structural-deadlock",
                f"{len(stuck)} reachable state(s) have no outgoing "
                f"transition (e.g. state {min(stuck)})",
            )
        )

    # dead boundary ports
    reachable = explore(large)
    fired: set[str] = set()
    for t in large.transitions:
        if t.source in reachable:
            fired |= t.label
    dead = sorted(boundary - fired)
    if dead:
        report.findings.append(
            Finding(
                "error",
                "dead-port",
                f"boundary vertex(es) {dead} occur in no reachable "
                "transition; operations on them can never complete",
            )
        )

    # unplannable transitions (data constraints with no executable plan)
    reg = registry or DEFAULT_REGISTRY
    seen_plans: set = set()
    unplannable: list[str] = []
    unknown_fns: set[str] = set()
    for t in large.transitions:
        if t.source not in reachable:
            continue
        key = (t.label, t.atoms, t.effects)
        if key in seen_plans:
            continue
        seen_plans.add(key)
        try:
            commandify(
                t.label, t.atoms, t.effects,
                frozenset(tails), frozenset(heads), reg,
            )
        except ConstraintError as exc:
            unplannable.append(f"{{{','.join(sorted(t.label))}}}: {exc}")
        except KeyError as exc:
            unknown_fns.add(str(exc))
    if unplannable:
        report.findings.append(
            Finding(
                "error",
                "unplannable-transition",
                f"{len(unplannable)} reachable transition(s) have no "
                f"executable firing plan, e.g. {unplannable[0]}",
            )
        )
    if unknown_fns:
        report.findings.append(
            Finding(
                "warning",
                "unknown-function",
                "transitions reference unregistered functions/predicates: "
                + ", ".join(sorted(unknown_fns)),
            )
        )

    # non-reactive states (only internal steps available)
    non_reactive = []
    for state in reachable:
        outgoing = large.outgoing(state)
        if outgoing and all(not (t.label & boundary) for t in outgoing):
            non_reactive.append(state)
    if non_reactive:
        report.findings.append(
            Finding(
                "info",
                "non-reactive-state",
                f"{len(non_reactive)} reachable state(s) progress only via "
                "internal steps",
            )
        )

    report.findings.append(
        Finding(
            "info",
            "state-space",
            f"{s.n_reachable} reachable states, {s.n_transitions} "
            f"transitions, max out-degree {s.max_out_degree}",
        )
    )
    return report
