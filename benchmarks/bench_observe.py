"""Observability overhead on Fig. 12 library connectors.

The metrics layer is built to be *disabled by default and cheap when on*:
every hot-path hook in the engine sits behind a single
``if self._metrics is not None`` branch, an enabled hook is a dict lookup
plus an increment, the step/scan totals are pull-sampled from counts the
engine keeps anyway, and the latency histogram samples every
``LATENCY_STRIDE``-th step (docs/INTERNALS.md §8).  This experiment pins
both claims per global step in units of ``record.reference_us`` — the
bare locked enqueue + drain CI's engine gates count in — timed in the
same rounds, so the host's speed and speed mode cancel:

* **enabled** — metered minus bare CPU time per step must stay under the
  connector's ``ENABLED_BUDGET`` reference rounds;
* **disabled** — an A/A control (bare vs bare), read by the same
  estimator, must stay under ``DISABLED_BUDGET``: with metrics off the
  instrumented build runs the pre-observability code path, so any measured
  difference is measurement noise, not cost, and the control centres on 0.

The budgets were absolute nanoseconds until the speed modes of the 2-core
dev box made them fail at any commit (EXPERIMENTS.md E19), then reference
units read by the least paired difference, which is biased low (an
*enabled* cost read −0.81).  Read by the median of per-round differences
(EXPERIMENTS.md E20), twenty runs here read enabled FifoChain/4
1.35–1.78 and EarlyAsyncMerger/4 2.19–2.60, and the A/A control −0.40 to
+0.14, centred on 0 (one run failed on it); with the latency histogram
observed on every step, 2.50–2.74 and 4.78–5.34 (3/3 fail).  The budgets are the ones set before: 2.0, 2.7
and 0.1.  The percentages of a bare step are still printed.

Methodology, deliberately noise-hardened (shared CI boxes throttle):

* the driver is the paper's §V.B workload shape — tasks that do nothing
  but send/receive as fast as they can — but run *single-threaded* on
  buffered connectors (send completes into the buffer, then the heads are
  drained), so the step schedule is deterministic and scheduler jitter
  never enters the measurement;
* cost is CPU time per global step (``time.process_time``), immune to
  preemption by other processes;
* one core pinned and the collector off (``record._pinned``), as the
  engine gates time;
* each round measures a bare/metered *pair* back-to-back (order
  alternating round to round to cancel drift), each difference in that
  round's reference units, and the asserted number is the **median** of
  the per-round differences; a median over its budget is measured again,
  up to three more passes whose rounds join it (``record._measure``'s
  shape).  The least difference, asserted before, is biased low:
  interference inflates either side of a pair, so the least over rounds
  is a round where the *bare* side was hit.

Numbers land in ``benchmark.extra_info`` (JSON via ``--benchmark-json``)
like every other experiment in this suite; run with ``-s`` for the table.
"""

import statistics
import time

import pytest

from repro.connectors import library
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.ports import mkports

from record import _pinned, reference_us  # benchmarks/: the engine gates' unit

#: (connector, arity, send/recv pairs per run).  All buffered, so the
#: single-threaded drive loop below never blocks.  Two shapes suffice:
#: a chain (many internal tau-steps per value) and a merger (boundary
#: ops dominate) stress the hooks from both ends.
CONNECTORS = (
    ("FifoChain", 4, 6000),
    ("EarlyAsyncMerger", 4, 3000),
)
ROUNDS = 12

#: Reference rounds (CPU time) per global step.
ENABLED_BUDGET = {"FifoChain": 2.0, "EarlyAsyncMerger": 2.7}
DISABLED_BUDGET = 0.1


def cpu_per_step(name: str, n: int, k: int, metered: bool) -> float:
    """CPU nanoseconds per global execution step for ``k`` drive rounds."""
    kw = {"metrics": MetricsRegistry()} if metered else {}
    conn = library.connector(name, n, **kw)
    outs, ins = mkports(len(conn.tail_vertices), len(conn.head_vertices))
    conn.connect(outs, ins)
    c0 = time.process_time()
    for j in range(k):
        outs[0].send(j)
        for p in ins:
            p.recv()
    cpu = time.process_time() - c0
    steps = conn.steps
    conn.close()
    assert steps > 0
    return cpu / steps * 1e9


def _pass(name: str, n: int, k: int, rows: dict) -> None:
    """ROUNDS rounds, each a reference sample, a bare/metered pair and a
    bare/bare pair (the pairs' order alternating round to round), added to
    ``rows``: each pair's difference in that round's reference units."""
    with _pinned():
        for r in range(ROUNDS):
            ref = 1e3 * reference_us(clock=time.process_time)
            if r % 2 == 0:
                bare = cpu_per_step(name, n, k, False)
                metr = cpu_per_step(name, n, k, True)
            else:
                metr = cpu_per_step(name, n, k, True)
                bare = cpu_per_step(name, n, k, False)
            a = cpu_per_step(name, n, k, False)
            b = cpu_per_step(name, n, k, False)
            rows["ref"].append(ref)
            rows["bare"].append(bare)
            rows["enabled"].append((metr - bare) / ref)
            rows["control"].append(((b - a) if r % 2 == 0 else (a - b)) / ref)


def run_suite(name: str, n: int, k: int) -> dict:
    """One pass, then, while a median is over its budget, up to three more
    whose rounds join the ones already read (``record._measure``'s shape):
    more rounds settle a median that a burst of interference moved."""
    cpu_per_step(name, n, max(k // 10, 50), False)  # warm both paths
    cpu_per_step(name, n, max(k // 10, 50), True)
    rows: dict = {"ref": [], "bare": [], "enabled": [], "control": []}
    for _ in range(4):
        _pass(name, n, k, rows)
        on = statistics.median(rows["enabled"])
        off = statistics.median(rows["control"])
        if on < ENABLED_BUDGET[name] and off < DISABLED_BUDGET:
            break
    ns, ref = statistics.median(rows["bare"]), statistics.median(rows["ref"])
    return {
        "connector": name,
        "rounds": len(rows["ref"]),
        "ns_cpu_per_step": round(ns, 1),
        "reference_ns": round(ref, 1),
        "enabled_units": round(on, 3),
        "disabled_units": round(off, 3),
        "enabled_ns": round(on * ref, 1),
        "disabled_ns": round(off * ref, 1),
        "enabled_overhead": round(on * ref / ns, 4),
        "disabled_overhead": round(off * ref / ns, 4),
    }


@pytest.mark.parametrize("name,n,k", CONNECTORS)
def test_observe_overhead(benchmark, once, name, n, k):
    row = once(run_suite, name, n, k)
    print(f"\n{'connector':>22} {'ns/step':>9} {'on':>14} {'off':>14} "
          f"{'ref':>6}")
    print(f"{row['connector']:>22} {row['ns_cpu_per_step']:>9} "
          f"{row['enabled_ns']:>7} {row['enabled_overhead']:>6.1%} "
          f"{row['disabled_ns']:>7} {row['disabled_overhead']:>6.1%} "
          f"{row['reference_ns']:>6}   "
          "(median paired ns/step, and % of a bare step)")
    print(f"{'':>22} in reference rounds: on {row['enabled_units']:.2f} "
          f"(budget {ENABLED_BUDGET[name]:.2f}), off "
          f"{row['disabled_units']:.2f} (budget {DISABLED_BUDGET:.2f}), "
          f"{row['rounds']} rounds")
    benchmark.extra_info.update(row)
    assert row["enabled_units"] < ENABLED_BUDGET[name]
    assert row["disabled_units"] < DISABLED_BUDGET
