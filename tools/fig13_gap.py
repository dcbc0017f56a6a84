#!/usr/bin/env python
"""Where Fig. 13's reo − original gap goes (EXPERIMENTS.md E13).

Pinned to one core like the suite's ``npb_fig13``, best of ``REPS``, gc
off: the build → connect → visit every state → close cycle of the
connectors a run builds, for a first (cold tables) and a later instance;
then for cg and lu, classes S and W, N = 2: original, reo and their gap,
the gap's fixed term and per-round slope from a least-squares fit over
``niter`` / ``nsweeps`` (temporary ``ProblemClass`` entries on the real
matrices; a round is one matvec for cg, one sweep for lu), and steps /
parks per connector.  Prints, asserts nothing, exits 0:  python tools/fig13_gap.py
"""

from __future__ import annotations

import gc
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from repro.connectors import library  # noqa: E402
from repro.npb import cg, lu  # noqa: E402
from repro.npb.common import ProblemClass, make_bcast, make_gather, make_pipe  # noqa: E402
from repro.runtime.ports import mkports  # noqa: E402

REPS = 15
KIT = {"bcast": lambda: make_bcast(2), "gather": lambda: make_gather(2),
       "pipe": make_pipe}
#: program → (module, the parameter a round count hangs on, its values,
#: rounds per unit of it, the connectors one run builds)
PROGRAMS = {
    "cg": (cg, "niter", (1, 2, 5, 15, 30), cg.CGITMAX + 1, ["bcast", "gather"]),
    "lu": (lu, "nsweeps", (1, 2, 4, 8, 16), 1, ["gather", "pipe", "pipe"]),
}


def best_ms(fn, reps=REPS) -> float:
    out = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return 1e3 * min(out)


def cycle(makers) -> None:
    """Build and connect every connector, two lock-step rounds through each
    (all of a fifo1 connector's states at N = 2), close them."""
    conns = [make() for make in makers]
    for conn in conns:
        conn.connect(*mkports(len(conn.tail_vertices), len(conn.head_vertices)))
    for conn in conns:
        engine = conn.engine
        for value in range(2):
            sends = [engine.post_send(t, value) for t in conn.tail_vertices]
            while not all(op.done for op in sends):
                for h in conn.head_vertices:
                    engine.post_recv(h)
    for conn in conns:
        conn.close()


def fit(xs, ys) -> tuple[float, float]:  # least squares y = a + b x
    n, sx, sy = len(xs), sum(xs), sum(ys)
    b = (n * sum(x * y for x, y in zip(xs, ys)) - sx * sy) / (
        n * sum(x * x for x in xs) - sx * sx)
    return (sy - b * sx) / n, b


def gap_rows(name: str) -> None:
    module, knob, values, per_unit, _ = PROGRAMS[name]
    for clazz in ("S", "W"):
        params = module.CLASSES[clazz].params
        rounds, gaps = [], []
        for value in values:
            tmp = f"{clazz}@{value}"
            module.CLASSES[tmp] = ProblemClass(tmp, {**params, knob: value})
            try:
                module.run_reo(tmp, 2)  # warm: matrix, oracle, tables
                original = best_ms(lambda: module.run_original(tmp, 2))
                reo = best_ms(lambda: module.run_reo(tmp, 2))
            finally:
                del module.CLASSES[tmp]
            rounds.append(value * per_unit)
            gaps.append(reo - original)
            if value == params[knob]:
                print(f"{name}-{clazz}-2  original {original:7.2f} ms  "
                      f"reo {reo:7.2f} ms  gap {reo - original:6.2f} ms  "
                      f"ratio {reo / original:.3f}")
        fixed, slope = fit(rounds, gaps)
        print(f"{name}-{clazz}-2  gap = {fixed:.2f} ms + {1e3 * slope:.1f} µs"
              f" × rounds   ({knob} {list(values)}: "
              f"{', '.join(f'{g:.2f}' for g in gaps)} ms)")
        result = module.run_reo(clazz, 2)
        for conn, s in result.extra.items():
            print(f"{name}-{clazz}-2  {conn:7} steps {s['steps']:5d}  "
                  f"parks {s['parks']:5d}  expansions {s['expansions']}")


def main() -> int:
    os.sched_setaffinity(0, {sorted(os.sched_getaffinity(0))[0]})
    gc.disable()
    cycle([lambda: library.connector("Merger", 2)])  # imports, nothing shared
    for k, make in KIT.items():
        first = best_ms(lambda: cycle([make]), reps=1)
        print(f"{k:7}  build→connect→visit→close: first instance "
              f"{first:.2f} ms, later {best_ms(lambda: cycle([make])):.2f} ms")
    for name, (*_, kit) in PROGRAMS.items():
        print(f"{name}  cycle of {'+'.join(kit)}, later instances: "
              f"{best_ms(lambda: cycle([KIT[k] for k in kit])):.2f} ms")
    for name in PROGRAMS:
        gap_rows(name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
