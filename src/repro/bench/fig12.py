"""Figure 12: the connector experiment series (paper §V.B).

For each of the 18 library connectors and each N ∈ {2, 4, 8, 16, 32, 64}:

* **new approach** — the parametrized compiler (compiled *once* per
  connector, cached), just-in-time composition at run time;
* **existing approach** — :func:`repro.compiler.compile_existing`, re-run
  per N, within state and wall-clock compile budgets.

Each run is classified into the paper's four bins:

* ``fail``   (dark gray, dotted) — new compiles, existing fails;
* ``new``    (dark gray)          — new outperforms existing;
* ``ex10``   (medium gray)        — existing outperforms, up to 1 order of
  magnitude;
* ``ex100``  (light gray)         — existing outperforms, up to 2 orders.

The paper's overall pie is 8% / 42% / 42% / 8%; EXPERIMENTS.md records what
this reproduction measures and why the shape holds.  ``python -m repro fig12
--check`` fails the run on each claim of :func:`violations` the sweep breaks.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field

from repro.bench.harness import ThroughputSample, drive_connector
from repro.compiler import compile_existing, compile_source
from repro.connectors import library

DEFAULT_NS = (2, 4, 8, 16, 32, 64)
BINS = ("fail", "new", "ex10", "ex100")
#: The existing approach must compile every connector up to this N.
EXISTING_COMPILES_UP_TO = 8
BIN_LEGEND = {
    "fail": "new compiles, existing fails (dotted dark gray)",
    "new": "new outperforms existing (dark gray)",
    "ex10": "existing outperforms <= 10x (medium gray)",
    "ex100": "existing outperforms <= 100x (light gray)",
}


@dataclass
class Fig12Cell:
    connector: str
    n: int
    new: ThroughputSample
    existing: ThroughputSample
    bin: str


@dataclass
class Fig12Report:
    cells: list[Fig12Cell] = field(default_factory=list)
    ns: tuple[int, ...] = DEFAULT_NS

    def counts_by_n(self) -> dict[int, dict[str, int]]:
        out: dict[int, dict[str, int]] = {
            n: {b: 0 for b in BINS} for n in self.ns
        }
        for c in self.cells:
            out[c.n][c.bin] += 1
        return out

    def pie(self) -> dict[str, float]:
        total = len(self.cells) or 1
        counts = {b: 0 for b in BINS}
        for c in self.cells:
            counts[c.bin] += 1
        return {b: 100.0 * k / total for b, k in counts.items()}

    # -- rendering ----------------------------------------------------------

    def render(self, detail: bool = False) -> str:
        lines = []
        lines.append("Fig. 12 reproduction — connector benchmarks")
        lines.append("")
        lines.append("Bar chart (#experiments per bin, by N):")
        header = f"{'N':>4} " + " ".join(f"{b:>6}" for b in BINS)
        lines.append(header)
        for n, counts in sorted(self.counts_by_n().items()):
            lines.append(
                f"{n:>4} " + " ".join(f"{counts[b]:>6}" for b in BINS)
            )
        lines.append("")
        lines.append("Pie chart (overall shares; paper: fail 8%, new 42%, "
                      "existing<=10x 42%, existing<=100x 8%):")
        for b, pct in self.pie().items():
            lines.append(f"  {pct:5.1f}%  {BIN_LEGEND[b]}")
        if detail:
            lines.append("")
            lines.append(
                f"{'connector':<26}{'N':>4} {'new st/s':>12} {'setup s':>8} "
                f"{'exist st/s':>12} {'setup s':>8} {'bin':>6}  note"
            )
            for c in self.cells:
                note = c.existing.failure if c.existing.failed else ""
                lines.append(
                    f"{c.connector:<26}{c.n:>4} {c.new.rate:>12.0f} "
                    f"{c.new.setup_s:>8.3f} "
                    f"{(0 if c.existing.failed else c.existing.rate):>12.0f} "
                    f"{c.existing.setup_s:>8.3f} {c.bin:>6}  {note}"
                )
        return "\n".join(lines)


def classify(new: ThroughputSample, existing: ThroughputSample) -> str:
    if existing.failed:
        return "fail"
    if new.rate >= existing.rate:
        return "new"
    if existing.rate <= 10.0 * max(new.rate, 1e-9):
        return "ex10"
    return "ex100"


def violations(report: Fig12Report) -> list[str]:
    """The paper's Fig. 12 claims that ``report`` breaks, one line each: the
    new approach fails no cell, the existing one none at N <= 8, and no
    fewer at the largest N than at the second; the new approach wins or the
    existing one fails somewhere, and the existing one wins somewhere."""
    out = []
    for c in report.cells:
        if c.new.failed:
            out.append(f"new approach failed {c.connector}/{c.n}: "
                       f"{c.new.failure}")
        if c.existing.failed and c.n <= EXISTING_COMPILES_UP_TO:
            out.append(f"existing approach failed {c.connector}/{c.n} "
                       f"(N <= {EXISTING_COMPILES_UP_TO}): {c.existing.failure}")
    ns = sorted(report.ns)
    if len(ns) < 2:
        out.append("comparing failures across N needs two N or more")
    else:
        fails = {n: k["fail"] for n, k in report.counts_by_n().items()}
        if fails[ns[-1]] < fails[ns[1]]:
            out.append(f"existing approach fails fewer cells at N = {ns[-1]} "
                       f"({fails[ns[-1]]}) than at N = {ns[1]} ({fails[ns[1]]})")
    bins = {c.bin for c in report.cells}
    if not bins & {"new", "fail"}:
        out.append("new approach wins no cell and existing fails none")
    if not bins & {"ex10", "ex100"}:
        out.append("existing approach wins no cell")
    return out


def run_fig12(
    names: tuple[str, ...] | None = None,
    ns: tuple[int, ...] = DEFAULT_NS,
    window_s: float = 0.25,
    state_budget: int = 50_000,
    compile_time_budget_s: float = 2.0,
    include_setup: bool = True,
    verbose: bool = False,
) -> Fig12Report:
    """Run the full first experiment series (or a subset)."""
    names = names or library.names()
    report = Fig12Report(ns=tuple(ns))
    for name in names:
        # New approach: one compilation for all N (cached via the library).
        for n in ns:
            new_sample = drive_connector(
                lambda: library.connector(name, n),
                window_s=window_s,
                include_setup=include_setup,
            )

            source = library.dsl_source(name, n)

            def make_existing(source=source, name=name, n=n):
                compiled = compile_existing(
                    source,
                    name,
                    sizes=n,
                    state_budget=state_budget,
                    time_budget_s=compile_time_budget_s,
                )
                return compiled.instantiate_connector()

            existing_sample = drive_connector(
                make_existing, window_s=window_s, include_setup=include_setup
            )
            cell = Fig12Cell(
                name, n, new_sample, existing_sample,
                classify(new_sample, existing_sample),
            )
            report.cells.append(cell)
            if verbose:
                print(
                    f"{name:<26} N={n:<3} new={new_sample.rate:>10.0f}/s "
                    f"existing="
                    + (
                        "FAILED"
                        if existing_sample.failed
                        else f"{existing_sample.rate:>10.0f}/s"
                    )
                    + f"  -> {cell.bin}",
                    file=sys.stderr,
                )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--connector", action="append",
                    help="restrict to specific connector(s)")
    ap.add_argument("--ns", default=",".join(map(str, DEFAULT_NS)),
                    help="comma-separated N values")
    ap.add_argument("--window", type=float, default=0.25,
                    help="measurement window per run (seconds)")
    ap.add_argument("--state-budget", type=int, default=50_000)
    ap.add_argument("--compile-budget", type=float, default=2.0,
                    help="existing-compiler time budget (seconds)")
    ap.add_argument("--steady", action="store_true",
                    help="measure the post-connect phase only")
    ap.add_argument("--detail", action="store_true")
    ap.add_argument("--verbose", action="store_true")
    ap.add_argument("--check", action="store_true",
                    help="exit 1 on each paper claim the sweep breaks")
    args = ap.parse_args(argv)
    report = run_fig12(
        names=tuple(args.connector) if args.connector else None,
        ns=tuple(int(x) for x in args.ns.split(",")),
        window_s=args.window,
        state_budget=args.state_budget,
        compile_time_budget_s=args.compile_budget,
        include_setup=not args.steady,
        verbose=args.verbose,
    )
    print(report.render(detail=args.detail))
    broken = violations(report) if args.check else []
    for line in broken:
        print(f"FAIL: {line}")
    return 1 if broken else 0
