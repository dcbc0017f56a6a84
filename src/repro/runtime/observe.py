"""Exporters for the observability layer — Prometheus, JSON, Chrome trace.

:mod:`repro.runtime.metrics` accumulates the numbers; this module turns
them (and :class:`~repro.runtime.trace.TraceRecorder` events) into the
three formats the tooling world already speaks:

* :func:`render_prometheus` — Prometheus text exposition (``# HELP`` /
  ``# TYPE`` lines, cumulative ``_bucket{le=...}`` histograms) for
  scraping or eyeballing;
* :func:`snapshot` / :func:`render_json` — a plain-data JSON snapshot for
  programmatic diffing and dashboards;
* :func:`chrome_trace` / :func:`render_chrome_trace` — the Chrome trace
  event format (the ``traceEvents`` JSON that ``chrome://tracing`` and
  `Perfetto <https://ui.perfetto.dev>`_ load): every fired step becomes an
  instantaneous slice on a *steps* lane, and every completed boundary
  operation becomes a timed span on its vertex's lane stretching from
  enqueue to firing — protocol waiting time made visible.

The CLI front door is ``python -m repro obs`` (see docs/OBSERVABILITY.md
for the recipes); :func:`run_observed_farm` is the scenario it runs for
``--example overload_shedding_farm``: the shed-and-account act of
``examples/overload_shedding_farm.py`` plus a watchdog-flagged stall, so
one run exercises the engine, overload, watchdog, and task metrics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from repro.runtime.metrics import (  # noqa: F401 - CONTRACT_FAMILIES re-export
    CATALOGUE,
    CONTRACT_FAMILIES,
    Histogram,
    MetricsRegistry,
)

# --------------------------------------------------------------------------
# Prometheus text exposition
# --------------------------------------------------------------------------


def _fmt(value: float) -> str:
    """Minimal float rendering: integral values without the trailing .0."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _labelstr(labelnames, labelvalues, extra=()) -> str:
    pairs = [
        f'{n}="{_escape(v)}"' for n, v in zip(labelnames, labelvalues)
    ] + [f'{n}="{_escape(v)}"' for n, v in extra]
    return "{" + ",".join(pairs) + "}" if pairs else ""


def render_prometheus(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format (version 0.0.4)."""
    lines: list[str] = []
    for fam in registry.collect():
        lines.append(f"# HELP {fam.name} {_escape(fam.help)}")
        lines.append(f"# TYPE {fam.name} {fam.kind}")
        for labelvalues, value in fam.samples():
            if isinstance(value, Histogram):
                running = 0
                for bound, cum in value.cumulative():
                    le = "+Inf" if bound == float("inf") else _fmt(bound)
                    running = cum
                    lines.append(
                        f"{fam.name}_bucket"
                        f"{_labelstr(fam.labelnames, labelvalues, [('le', le)])}"
                        f" {cum}"
                    )
                base = _labelstr(fam.labelnames, labelvalues)
                lines.append(f"{fam.name}_sum{base} {_fmt(value.sum)}")
                lines.append(f"{fam.name}_count{base} {running}")
            else:
                lines.append(
                    f"{fam.name}{_labelstr(fam.labelnames, labelvalues)}"
                    f" {_fmt(value)}"
                )
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# JSON snapshot
# --------------------------------------------------------------------------


def snapshot(registry: MetricsRegistry) -> dict:
    """The registry as a plain-data dict (JSON-ready: the ``+Inf`` bucket
    bound is the string ``"+Inf"``, everything else is numbers/strings)."""
    families = []
    for fam in registry.collect():
        samples = []
        for labelvalues, value in fam.samples():
            labels = dict(zip(fam.labelnames, labelvalues))
            if isinstance(value, Histogram):
                samples.append({
                    "labels": labels,
                    "buckets": [
                        ["+Inf" if b == float("inf") else b, c]
                        for b, c in value.cumulative()
                    ],
                    "sum": value.sum,
                    "count": value.count,
                })
            else:
                samples.append({"labels": labels, "value": value})
        families.append({
            "name": fam.name,
            "type": fam.kind,
            "help": fam.help,
            "labels": list(fam.labelnames),
            "samples": samples,
        })
    return {"families": families}


def render_json(registry: MetricsRegistry, indent: int = 2) -> str:
    return json.dumps(snapshot(registry), indent=indent, sort_keys=False)


# --------------------------------------------------------------------------
# Chrome trace event format (chrome://tracing / Perfetto)
# --------------------------------------------------------------------------

#: The trace's single process id; lanes (threads) live under it.
_PID = 1
#: Lane 0 is the steps lane; vertex lanes are assigned from 1 upward.
_STEPS_TID = 0


def chrome_trace(events, t0: float = 0.0, vertex_parties=None) -> dict:
    """Upgrade :class:`~repro.runtime.trace.TraceEvent` records into a
    Chrome-trace document (the ``traceEvents`` JSON).

    ``t0`` is the recording epoch to subtract (pass ``tracer.t0``).
    ``vertex_parties`` optionally maps vertex names to party/task names;
    a mapped vertex's lane is titled ``party:vertex`` so Perfetto groups
    operations by who performed them.

    Three kinds of entries come out, all under one process:

    * lane-name metadata (``ph:"M"``) — the *steps* lane plus one lane per
      boundary vertex that completed an operation;
    * one zero-ish-duration slice per fired step on the steps lane
      (``name`` = the synchronization set, ``args`` = seq/region/policy
      facts);
    * one timed slice per completed boundary operation on its vertex lane,
      from enqueue to firing (duration = the operation's wait).

    Events recorded without timing (``t == 0.0``) contribute nothing —
    only the observability-era engine stamps them.
    """
    vertex_parties = vertex_parties or {}
    timed = [e for e in events if e.t]
    vertices = sorted({v for e in timed for v, _ in e.waits})
    tids = {v: i + 1 for i, v in enumerate(vertices)}

    out = [
        {
            "ph": "M", "pid": _PID, "tid": _STEPS_TID,
            "name": "process_name", "args": {"name": "repro protocol"},
        },
        {
            "ph": "M", "pid": _PID, "tid": _STEPS_TID,
            "name": "thread_name", "args": {"name": "steps"},
        },
    ]
    for v in vertices:
        party = vertex_parties.get(v)
        out.append({
            "ph": "M", "pid": _PID, "tid": tids[v],
            "name": "thread_name",
            "args": {"name": f"{party}:{v}" if party else v},
        })

    for e in timed:
        ts = max((e.t - t0) * 1e6, 0.0)
        out.append({
            "ph": "X", "pid": _PID, "tid": _STEPS_TID,
            "ts": ts, "dur": 1,
            "name": "{" + ",".join(sorted(e.label)) + "}",
            "args": {"seq": e.seq, "region": e.region},
        })
        for v, wait in e.waits:
            kind = "send" if v in e.completed_sends else "recv"
            out.append({
                "ph": "X", "pid": _PID, "tid": tids[v],
                "ts": max((e.t - wait - t0) * 1e6, 0.0),
                "dur": max(wait * 1e6, 1.0),
                "name": f"{kind} {v}",
                "args": {"seq": e.seq},
            })
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def render_chrome_trace(events, t0: float = 0.0, vertex_parties=None) -> str:
    return json.dumps(chrome_trace(events, t0, vertex_parties))


# --------------------------------------------------------------------------
# The CLI scenario: the overload farm, observed
# --------------------------------------------------------------------------


@dataclass
class ObservedRun:
    """What one observed scenario produced: the filled registry, the
    timed tracer, lane titles for the Chrome exporter, and a plain-data
    summary of what happened (printed by the CLI)."""

    registry: MetricsRegistry
    tracer: object
    lanes: dict = field(default_factory=dict)
    summary: dict = field(default_factory=dict)


def run_observed_farm(
    jobs: int = 200, workers: int = 2, stall_phase: bool = True
) -> ObservedRun:
    """The overload-shedding farm with every observability hook armed.

    Phase 1 re-enacts act 1 of ``examples/overload_shedding_farm.py``: a
    producer floods a bounded ``EarlyAsyncRouter`` farm under a
    ``shed_newest`` policy; delivered + shed == submitted, and now the
    same books appear as metrics.  Phase 2 (``stall_phase=True``) re-enacts
    act 2 in miniature: one of two producers goes silent mid-protocol, the
    watchdog flags and quarantines it, and the stall/quarantine/departure
    counters record the episode.
    """
    import threading
    import time

    from repro.connectors import library
    from repro.runtime.overload import OverloadPolicy
    from repro.runtime.ports import mkports
    from repro.runtime.tasks import SupervisedTaskGroup
    from repro.runtime.trace import TraceRecorder
    from repro.runtime.watchdog import Watchdog
    from repro.util.errors import PortClosedError, ProtocolTimeoutError

    registry = MetricsRegistry()
    tracer = TraceRecorder()
    lanes: dict[str, str] = {}

    # -- phase 1: shed, and account for it ---------------------------------
    route = library.connector(
        "EarlyAsyncRouter",
        workers,
        overload=OverloadPolicy("shed_newest", max_pending=0),
        default_timeout=10.0,
        metrics=registry,
        tracer=tracer,
    )
    (job_out,), _ = mkports(1, 0)
    _, worker_ins = mkports(0, workers)
    route.connect([job_out], worker_ins)
    lanes[route.tail_vertices[0]] = "producer"
    for i, v in enumerate(route.head_vertices):
        lanes[v] = f"worker{i}"

    done: list = []

    def worker(rank: int):
        try:
            while True:
                done.append(worker_ins[rank].recv())
                time.sleep(0.002)  # bounded service rate — overload is real
        except PortClosedError:
            return

    threads = [
        threading.Thread(target=worker, args=(r,)) for r in range(workers)
    ]
    for t in threads:
        t.start()
    for job in range(jobs):
        job_out.send(job)  # never blocks: the policy sheds instead
    route.drain(timeout=10.0)
    for t in threads:
        t.join()
    shed = route.shed_count()
    assert len(done) + shed == jobs  # the books balance exactly

    summary = {
        "submitted": jobs,
        "delivered": len(done),
        "shed": shed,
        "steps": route.steps,
    }

    # -- phase 2: flag the laggard -----------------------------------------
    if stall_phase:
        gather = library.connector(
            "EarlyAsyncMerger", 2, default_timeout=10.0,
            metrics=registry, tracer=tracer,
        )
        outs, (result_in,) = mkports(2, 1)
        gather.connect(outs, [result_in])
        lanes[gather.tail_vertices[0]] = "steady"
        lanes[gather.tail_vertices[1]] = "laggard"
        lanes[gather.head_vertices[0]] = "consumer"

        group = SupervisedTaskGroup(
            join_timeout=30.0, on_departure="reparametrize", metrics=registry
        )

        def steady_producer():
            try:
                for i in range(400):
                    outs[0].send(("steady", i))
                    time.sleep(0.001)
            except PortClosedError:
                return

        def laggard_producer():
            outs[1].send(("laggard", 0))
            time.sleep(30.0)  # goes silent mid-protocol; quarantine frees us

        def consumer():
            try:
                while True:
                    result_in.recv(timeout=2.0)
            except (PortClosedError, ProtocolTimeoutError):
                return

        group.spawn(steady_producer, ports=[outs[0]], name="steady")
        laggard = group.spawn(laggard_producer, ports=[outs[1]], name="laggard")
        group.spawn(consumer, ports=[result_in], name="consumer")

        dog = Watchdog(
            [gather], probe_interval=0.05, stall_after=0.25,
            group=group, escalate=True, metrics=registry,
        )
        deadline = time.monotonic() + 10.0
        while not dog.reports and time.monotonic() < deadline:
            time.sleep(0.02)
            dog.probe()  # probed inline: no watchdog thread to race with
        group.shutdown(drain_timeout=10.0)
        summary["stalls"] = len(dog.reports)
        summary["quarantined"] = bool(laggard.departed)

    return ObservedRun(
        registry=registry, tracer=tracer, lanes=lanes, summary=summary
    )


def run_observed_connector(
    name: str, n: int, window_s: float = 0.25
) -> ObservedRun:
    """Drive one library connector with the Fig. 12 harness, metrics and
    tracing attached — the ``python -m repro obs --connector`` mode."""
    from repro.bench.harness import drive_connector
    from repro.connectors import library
    from repro.runtime.trace import TraceRecorder

    registry = MetricsRegistry()
    tracer = TraceRecorder()

    def make():
        return library.connector(name, n, metrics=registry, tracer=tracer)

    sample = drive_connector(make, window_s=window_s)
    return ObservedRun(
        registry=registry,
        tracer=tracer,
        summary={
            "connector": name,
            "n": n,
            "steps": sample.steps,
            "rate": sample.rate,
            "window_s": sample.window_s,
            "failed": sample.failed,
        },
    )
