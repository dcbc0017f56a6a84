"""Command-line interface: the toolchain of the paper's Fig. 11.

Subcommands::

    python -m repro compile FILE [--protocol NAME] [-o OUT.py]
        text-to-Python compilation (the paper's text-to-Java analogue)

    python -m repro run FILE --tasks MODULE [--param N=8] [--aot]
        execute a program's main definition; tasks resolved from MODULE

    python -m repro dot {graph|automaton} CONNECTOR N
        render a library connector (or its composed automaton) as DOT

    python -m repro verify FILE [--protocol NAME] [--sizes N]
        check a protocol for structural deadlocks, dead ports and
        unplannable transitions before running it

    python -m repro list
        list the built-in library connectors

    python -m repro obs [--example overload_shedding_farm | --connector NAME -n N]
                        [--format prometheus|json|chrome-trace|all] [-o OUT]
        run an observed scenario and export its metrics/trace
        (docs/OBSERVABILITY.md has the full recipe)

    python -m repro fuzz {run|replay|shrink} ...
        differential fuzzing: random programs executed under every mode
        pair, trace-equivalence oracle, shrink-to-minimal replay files
        (docs/INTERNALS.md §10)

    python -m repro serve [--load-test ...] [--daemon --state-dir DIR]
                          [--crash-test ...]
        the multi-tenant coordinator service: a hosted demo, the
        SLO-gated chaos load harness (docs/SERVICE.md), the durable
        JSON-lines daemon, or the kill-9 recovery audit
        (docs/DURABILITY.md)

    python -m repro fig12 / fig13 [--check] ...
        regenerate the paper's Fig. 12 / Fig. 13; --check fails the run on
        each of the paper's claims the result breaks
"""

from __future__ import annotations

import argparse
import importlib
import pathlib
import sys


def _cmd_compile(args) -> int:
    from repro.compiler import compile_source, generate_python

    source = pathlib.Path(args.file).read_text()
    program = compile_source(source)
    code = generate_python(program.protocol(args.protocol))
    if args.output:
        pathlib.Path(args.output).write_text(code)
        print(f"wrote {args.output}", file=sys.stderr)
    else:
        print(code)
    return 0


def _cmd_run(args) -> int:
    from repro.compiler import compile_source, run_main

    source = pathlib.Path(args.file).read_text()
    program = compile_source(source)
    registry = importlib.import_module(args.tasks)
    params = {}
    for spec in args.param or []:
        name, _, value = spec.partition("=")
        params[name] = int(value)
    options = {}
    if args.aot:
        options["composition"] = "aot"
    results = run_main(program, registry, params=params, **options)
    for i, r in enumerate(results):
        if r is not None:
            print(f"task[{i}] -> {r!r}")
    return 0


def _cmd_dot(args) -> int:
    from repro.connectors import library
    from repro.connectors.dot import automaton_to_dot, graph_to_dot

    built = library.build_graph(args.connector, args.n)
    if args.what == "graph":
        print(graph_to_dot(built.graph, set(built.tails), set(built.heads),
                           name=f"{args.connector}({args.n})"))
    else:
        from repro.automata.product import product
        from repro.compiler.fromgraph import compile_graph

        large = product(compile_graph(built), name=args.connector)
        print(automaton_to_dot(large))
    return 0


def _cmd_verify(args) -> int:
    from repro.automata.verify import verify_protocol
    from repro.compiler import compile_source

    source = pathlib.Path(args.file).read_text()
    protocol = compile_source(source).protocol(args.protocol)
    report = verify_protocol(protocol, sizes=args.sizes)
    print(report.render())
    return 0 if report.ok else 1


def _cmd_obs(args) -> int:
    from repro.runtime.observe import (
        render_chrome_trace,
        render_json,
        render_prometheus,
        run_observed_connector,
        run_observed_farm,
    )

    if args.connector:
        run = run_observed_connector(args.connector, args.n, args.window)
    else:
        run = run_observed_farm()
    print(f"scenario: {run.summary}", file=sys.stderr)

    renders = {
        "prometheus": lambda: render_prometheus(run.registry),
        "json": lambda: render_json(run.registry),
        "chrome-trace": lambda: render_chrome_trace(
            run.tracer.events, run.tracer.t0, run.lanes
        ),
    }
    default_names = {
        "prometheus": "obs-metrics.prom",
        "json": "obs-metrics.json",
        "chrome-trace": "obs-trace.json",
    }

    def _write(path: pathlib.Path, text: str) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
        print(f"wrote {path}", file=sys.stderr)

    if args.format == "all":
        outdir = pathlib.Path(args.out or ".")
        for fmt, render in renders.items():
            _write(outdir / default_names[fmt], render())
        print(
            "open the Chrome trace at https://ui.perfetto.dev "
            "(or chrome://tracing)",
            file=sys.stderr,
        )
        return 0
    text = renders[args.format]()
    if args.out:
        _write(pathlib.Path(args.out), text)
    elif args.format == "chrome-trace":
        # A trace is only useful as a loadable file: default the path.
        _write(pathlib.Path(default_names["chrome-trace"]), text)
    else:
        print(text, end="")
    return 0


def _cmd_list(_args) -> int:
    from repro.connectors import library

    for name in library.names():
        built = library.build_graph(name, 3)
        print(f"{name:<26} tails={len(built.tails):<3} heads={len(built.heads):<3} "
              f"arcs(n=3)={len(built.graph.arcs)}")
    return 0


def main(argv=None) -> int:
    # behave like a well-mannered unix filter under `| head`
    try:
        import signal

        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    except (AttributeError, ValueError):  # pragma: no cover - non-posix
        pass
    argv = list(sys.argv[1:] if argv is None else argv)
    # the paper's figures, one driver each
    if argv and argv[0] in ("fig12", "fig13"):
        figure = importlib.import_module(f"repro.bench.{argv[0]}")
        return figure.main(argv[1:])

    ap = argparse.ArgumentParser(
        prog="repro", description=__doc__.splitlines()[0]
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile a protocol file to Python")
    p.add_argument("file")
    p.add_argument("--protocol", help="definition to compile (default: main's)")
    p.add_argument("-o", "--output")
    p.set_defaults(fn=_cmd_compile)

    p = sub.add_parser("run", help="execute a program's main definition")
    p.add_argument("file")
    p.add_argument("--tasks", required=True,
                   help="module providing the task callables")
    p.add_argument("--param", action="append", metavar="NAME=INT")
    p.add_argument("--aot", action="store_true")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("dot", help="render a library connector as DOT")
    p.add_argument("what", choices=("graph", "automaton"))
    p.add_argument("connector")
    p.add_argument("n", type=int)
    p.set_defaults(fn=_cmd_dot)

    p = sub.add_parser("verify", help="verify a protocol before running it")
    p.add_argument("file")
    p.add_argument("--protocol", help="definition to verify (default: main's)")
    p.add_argument("--sizes", type=int, default=None,
                   help="length for array parameters")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("list", help="list the built-in library connectors")
    p.set_defaults(fn=_cmd_list)

    p = sub.add_parser(
        "obs", help="run an observed scenario and export metrics/trace"
    )
    p.add_argument(
        "--example", choices=("overload_shedding_farm",),
        default="overload_shedding_farm",
        help="observed example scenario (default)",
    )
    p.add_argument("--connector", help="drive a library connector instead")
    p.add_argument("-n", type=int, default=4,
                   help="connector arity for --connector (default 4)")
    p.add_argument("--window", type=float, default=0.25,
                   help="measurement window (s) for --connector")
    p.add_argument(
        "--format", choices=("prometheus", "json", "chrome-trace", "all"),
        default="all",
    )
    p.add_argument("-o", "--out",
                   help="output file (single format) or directory (all)")
    p.set_defaults(fn=_cmd_obs)

    from repro.fuzz.cli import add_subparsers as _add_fuzz
    from repro.serve.cli import add_subparsers as _add_serve

    _add_fuzz(sub)
    _add_serve(sub)

    args = ap.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
