"""Figure 13: the NPB experiment series (paper §V.C).

Per program (CG, LU — the Fig. 13 excerpt — plus EP and IS), per class, per
N: run time of the original (hand-written synchronization) program vs. the
Reo-based variant.  The paper's findings to reproduce:

1. small classes (S, W): generated-code overhead dominates — original wins
   clearly;
2. larger classes: the overhead is amortized — comparable performance for
   N ∈ {2, 4, 8};
3. N ∈ {16, 32, 64}: in the paper the Reo-based variants blow up without
   the ref-[32] partitioning and work with it.  Here they do not blow up:
   the connector composes just in time, one region per connected component,
   and cg ran and verified at N = 64 (ROADMAP's re-anchor probes);
   ``benchmarks/bench_partitioning.py`` measures partitioning at the
   product level.

``python -m repro fig13 --program cg --classes S,A --ns 2,4,8`` prints a
panel per (program, class), like Fig. 13's bar groups; ``--check`` fails
the run on each claim of :func:`violations` the panels break.
"""

from __future__ import annotations

import argparse

from repro.npb import cg, ep, ft, is_, lu, mg, sp

PROGRAMS = {"cg": cg, "lu": lu, "ep": ep, "is": is_, "mg": mg, "ft": ft, "sp": sp}
DEFAULT_CLASSES = ("S", "A")
DEFAULT_NS = (2, 4, 8)
#: cg's reo/original ratio at N = 4 on the last class stays under this
#: multiple of its ratio on the first class (finding 2: amortization).
AMORTIZATION = 1.5


def run_fig13(
    programs: tuple[str, ...] = ("cg", "lu"),
    classes: tuple[str, ...] = DEFAULT_CLASSES,
    ns: tuple[int, ...] = DEFAULT_NS,
    repeats: int = 1,
    verbose: bool = False,
) -> dict:
    """Run the panels; returns {(program, clazz): [(n, t_orig, t_reo, ok)]}."""
    results: dict = {}
    for prog in programs:
        mod = PROGRAMS[prog]
        for clazz in classes:
            rows = []
            for n in ns:
                t_orig = min(
                    mod.run_original(clazz, n).seconds for _ in range(repeats)
                )
                reo_runs = [mod.run_reo(clazz, n) for _ in range(repeats)]
                t_reo = min(r.seconds for r in reo_runs)
                ok = all(r.verified for r in reo_runs)
                rows.append((n, t_orig, t_reo, ok))
                if verbose:
                    print(f"{prog} {clazz} N={n}: original {t_orig:.3f}s, "
                          f"reo {t_reo:.3f}s, verified={ok}")
            results[(prog, clazz)] = rows
    return results


def violations(results: dict) -> list[str]:
    """The paper's Fig. 13 claims that ``results`` (as :func:`run_fig13`
    returns them) break, one line each: every Reo-based run verifies, and
    cg's reo/original ratio at N = 4 amortizes from the first class to the
    last."""
    out = [f"{prog} {clazz} N={n}: Reo-based run did not verify"
           for (prog, clazz), rows in results.items()
           for n, _, _, ok in rows if not ok]
    ratios = {clazz: t_reo / t_orig
              for (prog, clazz), rows in results.items() if prog == "cg"
              for n, t_orig, t_reo, _ in rows if n == 4}
    if len(ratios) < 2:
        out.append("amortization needs cg at N = 4 on two classes or more")
    else:
        first, *_, last = ratios
        if ratios[last] >= AMORTIZATION * ratios[first]:
            out.append(f"cg N=4 reo/original does not amortize: "
                       f"{last} {ratios[last]:.2f}x >= {AMORTIZATION} x "
                       f"{first} {ratios[first]:.2f}x")
    return out


def render(results: dict) -> str:
    lines = ["Fig. 13 reproduction — NPB: original vs. Reo-based run time", ""]
    for (prog, clazz), rows in results.items():
        lines.append(f"{prog.upper()}, size {clazz}  "
                     f"(dark gray = Reo-based, light gray = original):")
        lines.append(f"{'N':>4} {'original(s)':>12} {'reo(s)':>12} "
                     f"{'reo/orig':>9} {'verify':>7}")
        for n, t_orig, t_reo, ok in rows:
            ratio = t_reo / t_orig if t_orig > 0 else float("inf")
            lines.append(
                f"{n:>4} {t_orig:>12.3f} {t_reo:>12.3f} {ratio:>9.2f} "
                f"{'OK' if ok else 'FAIL':>7}"
            )
        lines.append("")
    return "\n".join(lines)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--program", action="append", choices=sorted(PROGRAMS),
                    help="programs to run (default: cg and lu)")
    ap.add_argument("--classes", default=",".join(DEFAULT_CLASSES))
    ap.add_argument("--ns", default=",".join(map(str, DEFAULT_NS)))
    ap.add_argument("--repeats", type=int, default=1)
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on each paper claim the panels break")
    args = ap.parse_args(argv)
    results = run_fig13(
        programs=tuple(args.program) if args.program else ("cg", "lu"),
        classes=tuple(args.classes.split(",")),
        ns=tuple(int(x) for x in args.ns.split(",")),
        repeats=args.repeats,
        verbose=args.verbose,
    )
    print(render(results))
    broken = violations(results) if args.check else []
    for line in broken:
        print(f"FAIL: {line}")
    return 1 if broken else 0
