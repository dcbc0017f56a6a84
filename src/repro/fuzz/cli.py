"""``python -m repro fuzz`` — run / replay / shrink.

Subcommands::

    fuzz run --seeds A:B [--budget S] [--out DIR] [--inject NAME]
             [--inject-mode MODE] [--chaos-every K] [-v]
        Generate and differentially execute seeded programs; on divergence,
        shrink and write a self-contained replay file to --out (exit 1).

    fuzz replay FILE...
        Re-run replay files; exit 0 iff every file's outcome matches its
        recorded ``expect`` ("ok" or "divergence").

    fuzz shrink FILE [-o OUT]
        Re-shrink a failure replay (e.g. one captured with a larger
        schedule) and write the minimized replay.

The fuzz-smoke CI job runs ``fuzz run`` over a fixed seed range with a
60-second budget; the nightly job widens both.  See docs/INTERNALS.md §10.
"""

from __future__ import annotations

import os
import sys
import time


def _still_fails(inject_fn, inject_mode):
    from repro.fuzz.harness import run_all

    def check(program, script, schedule) -> bool:
        _, diffs = run_all(program, script, schedule,
                           inject=inject_fn, inject_mode=inject_mode)
        return bool(diffs)

    return check


def _resolve_inject(name):
    if not name:
        return None
    from repro.fuzz.inject import INJECTIONS

    try:
        return INJECTIONS[name]
    except KeyError:
        raise SystemExit(
            f"unknown injection {name!r}; available: "
            + ", ".join(sorted(INJECTIONS))
        )


def cmd_run(args) -> int:
    from repro.fuzz.gen import generate
    from repro.fuzz.harness import run_all
    from repro.fuzz.shrink import save_replay, shrink, to_replay
    from repro.fuzz.sim import build_script, make_schedule

    lo, _, hi = args.seeds.partition(":")
    seeds = range(int(lo), int(hi))
    inject_fn = _resolve_inject(args.inject)
    t0 = time.monotonic()
    stats = {"seeds": 0, "batches": 0, "chaos": 0}
    failures = 0
    for seed in seeds:
        if args.budget and time.monotonic() - t0 > args.budget:
            print(f"budget of {args.budget:g}s reached after "
                  f"{stats['seeds']} seeds", file=sys.stderr)
            break
        program = generate(seed)
        script = build_script(program, seed)
        schedule = make_schedule(program, script, seed)
        stats["seeds"] += 1
        stats["batches"] += len(script.batches)
        _, diffs = run_all(program, script, schedule,
                           inject=inject_fn, inject_mode=args.inject_mode)
        if args.verbose:
            tag = "DIVERGED" if diffs else "ok"
            print(f"seed {seed}: {program.name} "
                  f"({len(script.batches)} batches, "
                  f"{'channelable, ' if program.channelable else ''}"
                  f"cp={schedule.checkpoint_at} "
                  f"floods={len(schedule.floods)}) {tag}")
        if diffs:
            failures += 1
            print(f"seed {seed}: DIVERGENCE\n  " + "\n  ".join(diffs),
                  file=sys.stderr)
            small = shrink(program, script, schedule,
                           _still_fails(inject_fn, args.inject_mode))
            doc = to_replay(*small, seed=seed, expect="divergence",
                            inject=args.inject,
                            note="; ".join(diffs[:3]))
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"seed{seed}.json")
            save_replay(path, doc)
            dsl_lines = len(small[0].dsl.splitlines())
            print(f"  shrunk to {len(small[1].batches)} batches / "
                  f"{dsl_lines} DSL lines -> {path}", file=sys.stderr)
        if not inject_fn and args.chaos_every and \
                stats["seeds"] % args.chaos_every == 0:
            from repro.fuzz.chaos import run_chaos

            stats["chaos"] += 1
            chaos_failures = run_chaos(seed)
            if chaos_failures:
                failures += 1
                print(f"seed {seed}: CHAOS FAILURE\n  "
                      + "\n  ".join(chaos_failures), file=sys.stderr)
    dt = time.monotonic() - t0
    print(f"fuzz: {stats['seeds']} seeds, {stats['batches']} batches, "
          f"{stats['chaos']} chaos scenarios, {failures} divergence(s) "
          f"in {dt:.1f}s")
    return 1 if failures else 0


def cmd_replay(args) -> int:
    from repro.fuzz.harness import run_all
    from repro.fuzz.shrink import load_replay

    bad = 0
    for path in args.files:
        program, script, schedule, meta = load_replay(path)
        inject_fn = _resolve_inject(meta.get("inject"))
        _, diffs = run_all(program, script, schedule, inject=inject_fn)
        outcome = "divergence" if diffs else "ok"
        match = outcome == meta["expect"]
        print(f"{path}: {outcome} (expected {meta['expect']})"
              + ("" if match else " MISMATCH"))
        if not match:
            bad += 1
            for d in diffs:
                print(f"  {d}", file=sys.stderr)
    return 1 if bad else 0


def cmd_shrink(args) -> int:
    from repro.fuzz.shrink import load_replay, save_replay, shrink, to_replay

    program, script, schedule, meta = load_replay(args.file)
    inject_fn = _resolve_inject(meta.get("inject"))
    check = _still_fails(inject_fn, args.inject_mode)
    if not check(program, script, schedule):
        print(f"{args.file}: does not fail — nothing to shrink",
              file=sys.stderr)
        return 1
    small = shrink(program, script, schedule, check)
    out = args.output or args.file
    save_replay(out, to_replay(
        *small, seed=meta.get("seed"), expect="divergence",
        inject=meta.get("inject"), note=meta.get("note", ""),
    ))
    print(f"shrunk to {len(small[1].batches)} batches / "
          f"{len(small[0].dsl.splitlines())} DSL lines -> {out}")
    return 0


def add_subparsers(sub) -> None:
    """Wire the ``fuzz`` subcommands into the ``python -m repro`` parser."""
    p = sub.add_parser("fuzz",
                       help="differential fuzzing: run / replay / shrink")
    fsub = p.add_subparsers(dest="fuzz_cmd", required=True)

    r = fsub.add_parser("run", help="generate and differentially execute")
    r.add_argument("--seeds", default="0:20", metavar="A:B",
                   help="half-open seed range (default 0:20)")
    r.add_argument("--budget", type=float, default=0.0,
                   help="wall-clock budget in seconds (0 = no limit)")
    r.add_argument("--out", default="fuzz-failures",
                   help="directory for shrunk failure replays")
    r.add_argument("--inject", default="",
                   help="intentional bug to inject (e.g. rr_window)")
    r.add_argument("--inject-mode", default="",
                   help="mode the injection applies to (default: its own)")
    r.add_argument("--chaos-every", type=int, default=4, metavar="K",
                   help="run a threaded chaos scenario every K seeds "
                        "(0 = never)")
    r.add_argument("-v", "--verbose", action="store_true")
    r.set_defaults(fn=cmd_run)

    rp = fsub.add_parser("replay", help="re-run replay files")
    rp.add_argument("files", nargs="+")
    rp.set_defaults(fn=cmd_replay)

    sh = fsub.add_parser("shrink", help="minimize a failure replay")
    sh.add_argument("file")
    sh.add_argument("-o", "--output", default="")
    sh.add_argument("--inject-mode", default="")
    sh.set_defaults(fn=cmd_shrink)
