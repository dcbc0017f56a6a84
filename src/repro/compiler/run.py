"""Executing a program's ``main`` definition (paper Figs. 8–9, line ``main``).

``main = Connector(...) among Task.a(...) and forall (i:1..N) Task.b(...)``
declares port arrays implicitly (``out[1..N]`` creates N outports), links
them to the connector, and spawns the tasks; parameters of ``main`` (the
``N`` of Fig. 9) are "input for the program, used at run-time to spawn an
appropriate number of tasks, and to create correspondingly sized
connectors".

:func:`run_main` performs exactly that: it instantiates the connector with
the paper's new approach, creates ports, spawns each task (resolved through
a caller-supplied registry) on its own thread, and joins them.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.compiler.plan import CompiledProgram
from repro.lang import ast
from repro.lang.interp import Env, eval_aexpr
from repro.runtime.ports import Inport, Outport
from repro.runtime.tasks import TaskGroup
from repro.util.errors import ScopeError


def _resolve_task(registry, name: str) -> Callable:
    """Find the callable for a dotted task name in ``registry`` (a mapping
    of dotted names, or an object navigated by attribute access)."""
    if isinstance(registry, Mapping):
        if name in registry:
            return registry[name]
        tail = name.split(".")[-1]
        if tail in registry:
            return registry[tail]
        raise ScopeError(f"task {name!r} not found in registry")
    obj = registry
    for part in name.split("."):
        try:
            obj = getattr(obj, part)
        except AttributeError:
            raise ScopeError(f"task {name!r} not found in registry") from None
    if not callable(obj):
        raise ScopeError(f"task {name!r} resolved to a non-callable")
    return obj


class _PortSpace:
    """The implicitly declared ports of a ``main`` definition."""

    def __init__(self) -> None:
        self.arrays: dict[str, int] = {}  # name -> length (max index seen)
        self.scalars: set[str] = set()
        self.ports: dict[str, Outport | Inport | list] = {}

    def note(self, arg: ast.Arg, env: Env) -> None:
        if isinstance(arg, ast.SliceRef):
            lo = eval_aexpr(arg.lo, env)
            hi = eval_aexpr(arg.hi, env)
            if lo != 1:
                raise ScopeError(
                    f"port array slice {arg} must start at 1 in main"
                )
            self.arrays[arg.name] = max(self.arrays.get(arg.name, 0), hi)
        elif arg.index is not None:
            idx = eval_aexpr(arg.index, env)
            self.arrays[arg.name] = max(self.arrays.get(arg.name, 0), idx)
        else:
            self.scalars.add(arg.name)

    def materialize(self, name: str, cls) -> None:
        if name in self.arrays:
            self.ports[name] = [
                cls(f"{name}@{i}") for i in range(1, self.arrays[name] + 1)
            ]
        else:
            self.ports[name] = cls(name)

    def lookup(self, arg: ast.Arg, env: Env):
        target = self.ports.get(arg.name)
        if target is None:
            raise ScopeError(f"undeclared port {arg.name!r} in task arguments")
        if isinstance(arg, ast.SliceRef):
            lo = eval_aexpr(arg.lo, env)
            hi = eval_aexpr(arg.hi, env)
            if not isinstance(target, list):
                raise ScopeError(f"port {arg.name!r} is not an array")
            return target[lo - 1 : hi]
        if arg.index is not None:
            idx = eval_aexpr(arg.index, env)
            if not isinstance(target, list):
                raise ScopeError(f"port {arg.name!r} is not an array")
            if not (1 <= idx <= len(target)):
                raise ScopeError(
                    f"port index {idx} out of range 1..{len(target)} "
                    f"for {arg.name!r}"
                )
            return target[idx - 1]
        return target


def run_main(
    compiled: CompiledProgram,
    registry,
    params: dict[str, int] | None = None,
    join_timeout: float | None = 60.0,
    **connector_options,
):
    """Run a compiled program's ``main``.

    ``registry`` maps dotted task names to callables (dict or object);
    ``params`` binds ``main``'s parameters (e.g. ``{"N": 8}``).  Each task
    receives its ports positionally (a list for array slices).  Returns the
    list of task results in declaration order (``forall`` bodies expand in
    iteration order).

    ``connector_options`` are forwarded to the connector instantiation
    (``composition=...``, ``compiled=...``, …).
    """
    main = compiled.main
    if main is None:
        raise ScopeError("program has no main definition")
    params = dict(params or {})
    missing = [p for p in main.params if p not in params]
    if missing:
        raise ScopeError(f"main parameters not supplied: {missing}")
    env = Env(variables=params)

    protocol = compiled.protocol(main.connector.name)
    conn_inst = main.connector
    if len(conn_inst.tails) != len(protocol.tails) or len(conn_inst.heads) != len(
        protocol.heads
    ):
        raise ScopeError(
            f"main instantiates {protocol.name!r} with the wrong arity"
        )

    # --- declare ports from the connector instantiation -------------------
    space = _PortSpace()
    for arg in conn_inst.tails + conn_inst.heads:
        space.note(arg, env)

    # Expand tasks first so indexed uses (out[i]) can size the arrays too.
    flat_tasks: list[tuple[ast.TaskInst, Env]] = []

    def expand(term: ast.TaskTerm, env_: Env) -> None:
        if isinstance(term, ast.Forall):
            lo = eval_aexpr(term.lo, env_)
            hi = eval_aexpr(term.hi, env_)
            for i in range(lo, hi + 1):
                expand(term.body, env_.bind(term.var, i))
        else:
            flat_tasks.append((term, env_))
            for arg in term.args:
                space.note(arg, env_)

    for term in main.tasks:
        expand(term, env)

    for arg in conn_inst.tails:
        space.materialize(arg.name, Outport)
    for arg in conn_inst.heads:
        if arg.name not in space.ports:
            space.materialize(arg.name, Inport)

    # --- bind the connector's formals to the declared port vertices -------
    bindings: dict[str, str | list[str]] = {}
    outports: list[Outport] = []
    inports: list[Inport] = []
    for formal, arg in zip(protocol.tails, conn_inst.tails):
        ports = space.lookup(arg, env)
        if formal.is_array != isinstance(ports, list):
            raise ScopeError(
                f"parameter {formal.name!r} of {protocol.name!r}: "
                f"array/scalar mismatch in main"
            )
        if isinstance(ports, list):
            bindings[formal.name] = [p.name for p in ports]
            outports.extend(ports)
        else:
            bindings[formal.name] = ports.name
            outports.append(ports)
    for formal, arg in zip(protocol.heads, conn_inst.heads):
        ports = space.lookup(arg, env)
        if formal.is_array != isinstance(ports, list):
            raise ScopeError(
                f"parameter {formal.name!r} of {protocol.name!r}: "
                f"array/scalar mismatch in main"
            )
        if isinstance(ports, list):
            bindings[formal.name] = [p.name for p in ports]
            inports.extend(ports)
        else:
            bindings[formal.name] = ports.name
            inports.append(ports)

    connector = protocol.instantiate_connector(
        bindings=bindings, **connector_options
    )
    connector.connect(outports, inports)

    # --- spawn and join the tasks ------------------------------------------
    with TaskGroup(join_timeout=join_timeout) as group:
        for inst, env_ in flat_tasks:
            fn = _resolve_task(registry, inst.name)
            args = [space.lookup(arg, env_) for arg in inst.args]
            group.spawn(fn, *args, name=inst.name)
    results = [h.result for h in group.handles]
    connector.close()
    return results
