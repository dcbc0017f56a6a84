"""``python -m repro serve`` — the coordinator service front door.

Two shapes::

    serve [--sessions N] [--tenants M] [--workers W] [--duration S]
        A short hosted demo: open N sessions, push a trickle of values,
        roll-restart one, print the service status table and the serve
        metric families.

    serve --load-test [--sessions N] [--overload X] [--duration S]
                      [--seed K] [--restarts R] [--out FILE] [--check FILE]
        The SLO-gated chaos harness (docs/SERVICE.md): sustained X-times
        overload across N sessions with seeded chaos, conservation /
        exactly-once / supervision audits, and a p99 gate.  ``--out``
        writes the report (the ``BENCH_serve.json`` baseline shape);
        ``--check`` re-runs a recorded baseline's spec and gates against
        it.  Exit 1 on any failed audit — a conservation violation or an
        unhandled supervisor exception is a red build, not a log line.

Two more, from the durability layer (docs/DURABILITY.md)::

    serve --daemon --state-dir DIR [--checkpoint-interval S]
        The crash-consistent coordinator daemon: JSON-lines control loop
        on stdin/stdout, durable sessions under DIR, cold-start recovery
        on boot (the "ready" line lists recovered sessions).

    serve --crash-test [--state-dir DIR] [--kills K] [--seed S]
                       [--budget S] [--sessions N] [--out FILE]
        The kill-9 chaos harness: SIGKILL the daemon at K seeded points
        (mid-snapshot, mid-journal-append, mid-restore, plus seeded
        torn-write corruption), restart from DIR each time, and audit
        zero loss / zero duplication of acknowledged deliveries.
"""

from __future__ import annotations

import json
import sys


def _spec_from(args):
    from repro.serve.loadgen import LoadSpec

    return LoadSpec(
        sessions=args.sessions,
        tenants=args.tenants,
        workers=args.workers,
        duration=args.duration,
        overload=args.overload,
        seed=args.seed,
        restarts=args.restarts,
    )


def _summarize(report) -> None:
    t = report.totals
    print(
        f"sessions={len(report.sessions)} submitted={t['submitted']} "
        f"delivered={t['delivered']} dead_letters={t['dead_letters']} "
        f"timeout={t['timeout']}",
        file=sys.stderr,
    )
    print(
        f"p50={report.p50 * 1e3:.2f}ms p99={report.p99 * 1e3:.2f}ms "
        f"restarts={report.restarts_done} wall={report.wall:.2f}s",
        file=sys.stderr,
    )
    for line in report.failures:
        print(f"FAIL: {line}", file=sys.stderr)


def cmd_serve(args) -> int:
    if args.daemon:
        from repro.serve.daemon import run_daemon

        if not args.state_dir:
            print("--daemon requires --state-dir", file=sys.stderr)
            return 2
        return run_daemon(args.state_dir,
                          checkpoint_interval=args.checkpoint_interval,
                          fsync=args.fsync)

    if args.crash_test:
        from repro.serve.crashtest import run_crash_test

        report = run_crash_test(
            args.state_dir, kills=args.kills, seed=args.seed,
            budget=args.budget, sessions=min(args.sessions, 4),
            workers=args.workers, out=args.out,
        )
        print(json.dumps({k: report[k] for k in
                          ("seed", "kills", "elapsed", "acked_total",
                           "unacked_total", "violations", "ok")}, indent=2),
              file=sys.stderr)
        return 0 if report["ok"] else 1

    if args.check:
        from repro.serve.loadgen import check

        ok, messages, fresh = check(args.check)
        _summarize(fresh)
        for line in messages:
            print(f"FAIL: {line}", file=sys.stderr)
        print("serve check:", "ok" if ok else "REGRESSION", file=sys.stderr)
        return 0 if ok else 1

    if args.load_test or args.out:
        from repro.serve.loadgen import record, run_load

        spec = _spec_from(args)
        if args.out:
            report = record(args.out, spec)
            print(f"wrote {args.out}", file=sys.stderr)
        else:
            report = run_load(spec)
        _summarize(report)
        return 0 if report.ok else 1

    return _cmd_demo(args)


def _cmd_demo(args) -> int:
    """A tiny hosted tour: open sessions, submit, restart, show the books."""
    import time

    from repro.runtime.observe import render_prometheus
    from repro.serve.admission import AdmissionController, TenantSpec
    from repro.serve.service import CoordinatorService

    controller = AdmissionController(
        default=TenantSpec("default", max_sessions=max(4, args.sessions))
    )
    service = CoordinatorService(controller)
    names = [f"s{i}" for i in range(args.sessions)]
    for i, name in enumerate(names):
        service.open_session(name, tenant=f"t{i % max(1, args.tenants)}",
                             workers=args.workers, service_time=0.001)
    for j in range(32):
        for name in names:
            service.submit(name, f"{name}:{j}", timeout=5.0)
    service.rolling_restart(names[0])
    time.sleep(0.2)
    status = service.status()
    service.close()
    print(json.dumps(status, indent=1))
    print(render_prometheus(service.metrics), end="")
    return 0


def add_subparsers(sub) -> None:
    """Wire the ``serve`` subcommand into the ``python -m repro`` parser."""
    p = sub.add_parser(
        "serve",
        help="multi-tenant coordinator service: demo or chaos load test",
    )
    p.add_argument("--load-test", action="store_true",
                   help="run the SLO-gated chaos harness instead of the demo")
    p.add_argument("--sessions", type=int, default=8,
                   help="hosted sessions (default 8)")
    p.add_argument("--tenants", type=int, default=2,
                   help="tenants the sessions are split across (default 2)")
    p.add_argument("--workers", type=int, default=2,
                   help="farm workers per session (default 2)")
    p.add_argument("--duration", type=float, default=2.0,
                   help="load duration in seconds (default 2.0)")
    p.add_argument("--overload", type=float, default=4.0,
                   help="offered load as a multiple of capacity (default 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="chaos-schedule seed (default 0)")
    p.add_argument("--restarts", type=int, default=1,
                   help="rolling restarts of s0 during the run (default 1)")
    p.add_argument("--out", metavar="FILE",
                   help="write the load report JSON (baseline shape)")
    p.add_argument("--check", metavar="FILE",
                   help="re-run a recorded baseline's spec and gate on it")
    p.add_argument("--daemon", action="store_true",
                   help="run the JSON-lines coordinator daemon "
                        "(requires --state-dir)")
    p.add_argument("--state-dir", metavar="DIR",
                   help="durable state directory; sessions become "
                        "crash-consistent (docs/DURABILITY.md)")
    p.add_argument("--checkpoint-interval", type=float, default=None,
                   metavar="S",
                   help="seconds between periodic durable checkpoints "
                        "(daemon mode; default: off)")
    p.add_argument("--fsync", action="store_true",
                   help="fsync every journal append (power-loss "
                        "durability; SIGKILL safety needs only the "
                        "default OS-level flush)")
    p.add_argument("--crash-test", action="store_true",
                   help="run the kill-9 recovery audit against the "
                        "daemon in a subprocess")
    p.add_argument("--kills", type=int, default=10,
                   help="seeded SIGKILL points for --crash-test "
                        "(default 10)")
    p.add_argument("--budget", type=float, default=90.0,
                   help="wall-clock budget in seconds for --crash-test "
                        "(default 90)")
    p.set_defaults(fn=cmd_serve)
