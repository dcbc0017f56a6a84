#!/usr/bin/env python3
"""One command for the whole benchmark suite.

    python3 benchmarks/suite/run.py                       # every workload
    python3 benchmarks/suite/run.py --workload W --seed S --seconds T --trace 0|1
    python3 benchmarks/suite/run.py --repeat-check        # do two runs agree?

One workload per process.  Every metric is printed by name with its unit;
the last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the end-to-end
metrics (``--trace 0``) or the per-layer metrics (``--trace 1``) that
``BENCHMARK.json`` declares.  A failed output check makes the exit code
non-zero.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import importlib
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
DEFAULT_SEED = 20180521
SKIPPED = 3  # exit code of a workload this host cannot run
#: Scratch files (durable state, traces) stay inside the checkout.
WORK_DIR = ROOT / ".bench_work"


def run_workload(args) -> int:
    """Run one workload in this process and print its result."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no repro package under {ROOT / 'src'}; "
              "the suite measures the checkout it lives in", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import harness  # imports repro
    module = importlib.import_module(args.workload)
    import_s = time.perf_counter() - t0

    host = harness.host_info()
    if args.workload == "handoff_threads" and host["nproc"] < 2:
        print("handoff_threads: skipped — needs two cores for its two "
              f"pinned party threads, this host allows {host['nproc']}",
              file=sys.stderr)
        return SKIPPED
    work_dir = WORK_DIR / f"{args.workload}-{args.seed}-{int(args.trace)}"
    ctx = harness.Ctx(seed=args.seed, seconds=args.seconds,
                      trace=bool(args.trace), work_dir=work_dir, host=host)
    result = module.run(ctx)
    result.per_layer.update({"host.import_s": import_s,
                             "host.nproc": host["nproc"]})

    work_dir.mkdir(parents=True, exist_ok=True)
    (work_dir / "detail.json").write_text(json.dumps(result.detail))

    for kind in ("end_to_end", "per_layer"):
        unknown = sorted(set(getattr(result, kind))
                         - {m["name"] for m in SPEC[kind]})
        if unknown:
            print(f"run.py: {args.workload} emitted {kind} metrics that "
                  f"BENCHMARK.json does not declare: {unknown}",
                  file=sys.stderr)
            return 4
    kind = "per_layer" if ctx.trace else "end_to_end"
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    values = getattr(result, kind)
    if ctx.trace:
        values["trace.self_time_share"] = ctx.tracer.self_time_share()
        values["trace.spans"] = len(ctx.tracer.spans) + len(ctx.tracer.leaves)
        out_dir = Path(args.trace_out) if args.trace_out else work_dir
        ctx.tracer.dump(out_dir / f"trace-{args.workload}.json",
                        args.workload)
        print(f"# trace: {out_dir / f'trace-{args.workload}.json'}")
    # A layer this workload bypasses has no span, hence no time: 0.
    metrics = {name: {"value": float(values.get(name, 0.0)), "unit": unit}
               for name, unit in declared.items()}

    print(f"# workload {args.workload} seed {args.seed} seconds "
          f"{args.seconds:g} trace {int(args.trace)}")
    print(f"# host {json.dumps(host)}")
    for note in result.notes:
        print(f"# {note}")
    other = result.end_to_end if ctx.trace else {}
    for name, value in other.items():
        print(f"{name:<44} {value:>16.6g}  (end-to-end, this traced run)")
    for name, m in metrics.items():
        print(f"{name:<44} {m['value']:>16.6g} {m['unit']}")
    correct = result.failed == 0
    print(json.dumps({"correct": correct, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if correct else 1


def spawn(workload: str, seed: int, seconds: float, trace: int,
          echo: bool = True) -> dict | None:
    """Run one workload in a fresh interpreter, as the driver does, and
    return its result line; ``None`` when it reported itself skipped."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    if echo:
        sys.stdout.write(proc.stdout)
    if proc.returncode == SKIPPED:
        return None
    if proc.returncode != 0:
        raise SystemExit(f"run.py: {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def repeat_check(workloads, seed: int, seconds: float) -> int:
    """Run everything twice with one seed: end-to-end metrics must agree
    within their bounds, and counts must be identical — except on
    ``handoff_threads``, where two free-running threads decide which states
    get visited."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    exact = ("lazy.expansions", "engine.steps")
    misses = 0
    for workload in workloads:
        a, b = (spawn(workload, seed, seconds, 0, echo=False)
                for _ in range(2))
        if a is None or b is None:
            print(f"{workload:<18} skipped on this host")
            continue
        for name, bound in bounds.items():
            x, y = (r["metrics"][name]["value"] for r in (a, b))
            delta = abs(x - y) / ((x + y) / 2)
            verdict = "ok" if delta <= bound else "MISS"
            misses += verdict == "MISS"
            print(f"{workload:<18} {name:<12} {x:>14.6g} {y:>14.6g} "
                  f"|d|/median {delta:6.3f} bound {bound:.2f} {verdict}")
        a, b = (spawn(workload, seed, seconds, 1, echo=False)
                for _ in range(2))
        for name in exact:
            x, y = (r["metrics"][name]["value"] for r in (a, b))
            verdict = ("ok" if x == y else
                       "differs" if workload == "handoff_threads" else "MISS")
            misses += verdict == "MISS"
            print(f"{workload:<18} {name:<16} {x:>12.0f} {y:>12.0f} "
                  f"exact {verdict}")
    return 1 if misses else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS,
                    help="default: every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"],
                    help="time budget of the measured passes")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: record spans, print the per-layer metrics")
    ap.add_argument("--traced", dest="trace", action="store_const", const=1,
                    help="same as --trace 1")
    ap.add_argument("--smoke", dest="seconds", action="store_const", const=1.0,
                    help="same as --seconds 1")
    ap.add_argument("--trace-out", help="directory for trace-<workload>.json "
                    "(default: under .bench_work/)")
    ap.add_argument("--repeat-check", action="store_true")
    args = ap.parse_args(argv)

    selected = [args.workload] if args.workload else WORKLOADS
    if args.repeat_check:
        return repeat_check(selected, args.seed, args.seconds)
    if args.workload:
        return run_workload(args)
    for workload in selected:
        spawn(workload, args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
