"""Structured runtime metrics — counters, gauges, histograms, one catalogue.

The robustness layers (docs/INTERNALS.md §§5–7) gave the runtime a lot of
*behaviour* — sheds, restarts, stalls, drains — but until this module the
only way to see any of it was ad-hoc ``stats()`` dicts and the trace
recorder.  This module is the quantitative half of the observability layer
(:mod:`repro.runtime.observe` is the exporting half): a thread-light
registry of named instruments that every runtime component updates through
pre-bound hook objects.

Design constraints (documented at length in docs/INTERNALS.md §8):

* **Off by default, free when off.**  No component creates instruments on
  its own; a :class:`MetricsRegistry` is opt-in per connector / channel /
  group / watchdog, and every hot-path hook hides behind a single
  ``if self._metrics is not None`` check.  Unconfigured programs run the
  exact pre-observability code path.
* **No per-sample allocation on the hot path.**  :class:`Histogram` uses
  fixed bucket boundaries (a bisect into a pre-allocated count list), never
  a stored sample; hook objects (:class:`ConnectorMetrics`,
  :class:`ChannelMetrics`) pre-bind their per-vertex children so a hot-path
  update is two dict lookups and an ``+=``.
* **Lock discipline.**  Instrument *creation* is serialized by the registry
  lock (cold path).  Instrument *mutation* takes no lock at all: every
  emitter updates its instruments under the owning component's own lock
  (the engine lock, the channel pipe lock, the dead-letter lock), so
  updates are already serialized and exact.  Reads (:meth:`collect`) take
  only the registry lock; values read while a component is mid-update may
  trail by one operation — snapshots are exact at quiescence, which is when
  the conservation tests read them.  Sampled gauges (queue depths, buffer
  occupancy) are *pull-style callbacks* that run at collect time under the
  owning component's lock, so they cost nothing between snapshots.
* **A closed catalogue.**  Every metric the runtime emits is declared in
  :data:`CATALOGUE` (name → type, labels, help); asking the registry for an
  undeclared name without an explicit spec is an error.  The catalogue is
  what docs/OBSERVABILITY.md documents, and
  ``tests/runtime/test_observe.py`` diffs the two so the docs cannot drift.

Usage::

    registry = MetricsRegistry()
    conn = library.connector("Alternator", 4, metrics=registry)
    ... run the protocol ...
    from repro.runtime.observe import render_prometheus
    print(render_prometheus(registry))
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from typing import Callable, Iterable, Sequence

# --------------------------------------------------------------------------
# The catalogue: every metric the runtime emits, in documentation order.
# docs/OBSERVABILITY.md lists exactly these names; tests enforce the match.
# --------------------------------------------------------------------------

#: The engine samples the step-latency histogram every Nth fired step: a
#: full observe per step is the single largest hot-path metric cost, and
#: the latency *distribution* doesn't need every step.  Counters are never
#: sampled — conservation laws stay exact.
LATENCY_STRIDE = 8

#: Default latency buckets (seconds): 10 µs .. 10 s, roughly ×3 apart.
DEFAULT_LATENCY_BUCKETS = (
    0.00001, 0.00003, 0.0001, 0.0003, 0.001, 0.003,
    0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0,
)

#: name -> (type, label names, help).  ``gauge`` families here are sampled
#: (pull-style callbacks); counters and histograms are pushed by hooks.
CATALOGUE: dict[str, tuple[str, tuple[str, ...], str]] = {
    # engine.py
    "repro_engine_steps_total": (
        "counter", ("connector",),
        "Global execution steps fired by the engine (the Fig. 12 metric).",
    ),
    "repro_engine_step_latency_seconds": (
        "histogram", ("connector",),
        "Age of the oldest pending operation a fired step completed "
        "(enqueue-to-fire), sampled every LATENCY_STRIDE-th step; "
        "tau-steps complete no operation and observe nothing.",
    ),
    "repro_engine_scan_candidates_total": (
        "counter", ("connector",),
        "Candidate transitions examined before each fired step (divide by "
        "repro_engine_steps_total for mean rounds scanned per fire).",
    ),
    "repro_engine_parks_total": (
        "counter", ("connector",),
        "Blocking submits that parked to wait for a step (divide by "
        "repro_engine_steps_total for thread hand-offs per step).",
    ),
    "repro_engine_pending_ops": (
        "gauge", ("connector", "vertex", "kind"),
        "Pending operations currently queued per boundary vertex "
        "(sampled at collect time).",
    ),
    # connector.py / channels.py — the cross-model surface
    "repro_ops_submitted_total": (
        "counter", ("connector", "vertex", "kind"),
        "Operations admitted past the open/drain checks (blocking and "
        "non-blocking), per boundary vertex and kind (send|recv).",
    ),
    "repro_ops_completed_total": (
        "counter", ("connector", "vertex", "kind"),
        "Operations completed by a protocol firing (connector) or a "
        "buffer transfer (channel), per boundary vertex and kind.",
    ),
    "repro_ops_withdrawn_total": (
        "counter", ("connector", "vertex", "kind"),
        "Submitted operations that left the pending queue without "
        "completing: a blocking operation that timed out, a try_* probe "
        "that could not fire immediately, or a pending operation failed "
        "by close/crash/deadlock delivery.  Closes the conservation law "
        "submitted == completed + shed + withdrawn at every "
        "instant, not only at quiescence.",
    ),
    "repro_buffer_occupancy": (
        "gauge", ("connector",),
        "Values currently buffered inside the protocol "
        "(sampled at collect time).",
    ),
    # overload.py
    "repro_overload_shed_total": (
        "counter", ("connector", "vertex", "policy"),
        "Values shed into the dead-letter buffer, by vertex and policy "
        "kind (exact — eviction does not uncount).",
    ),
    "repro_overload_dead_letters": (
        "gauge", ("connector", "vertex"),
        "Dead letters currently retained (bounded; sampled at collect "
        "time — repro_overload_shed_total keeps the exact total).",
    ),
    # watchdog.py
    "repro_watchdog_stalls_total": (
        "counter", ("task",),
        "Stall episodes flagged by the liveness watchdog, per party.",
    ),
    "repro_watchdog_quarantines_total": (
        "counter", ("task",),
        "Stalled tasks removed from their protocols via quarantine.",
    ),
    # tasks.py
    "repro_task_crashes_total": (
        "counter", ("task", "cause"),
        "Supervised task crashes, labelled by exception type name.",
    ),
    "repro_task_restarts_total": (
        "counter", ("task",),
        "Supervised task relaunches under a RestartPolicy.",
    ),
    "repro_task_departures_total": (
        "counter", ("task",),
        "Permanent failures absorbed by re-parametrization (the party "
        "left the protocol instead of poisoning it).",
    ),
    # serve/service.py — the multi-tenant coordinator service
    "repro_serve_sessions": (
        "gauge", ("tenant", "state"),
        "Hosted sessions per tenant and lifecycle state "
        "(sampled at collect time from the service's session table).",
    ),
    "repro_serve_admissions_total": (
        "counter", ("tenant", "outcome"),
        "Session-admission decisions per tenant: outcome admitted|rejected "
        "(rejected = tenant quota exhausted).",
    ),
    "repro_serve_restarts_total": (
        "counter", ("session",),
        "Rolling restarts completed per session (checkpoint -> fresh "
        "engine -> restore round-trips).",
    ),
    # runtime/durable.py — durable session state
    "repro_durable_snapshot_age_seconds": (
        "gauge", ("session",),
        "Seconds since the session's newest durable snapshot was "
        "committed (sampled at collect time; absent until the first "
        "snapshot).",
    ),
    "repro_durable_snapshot_bytes": (
        "gauge", ("session",),
        "Size in bytes of the newest durable snapshot generation.",
    ),
    "repro_durable_snapshot_duration_seconds": (
        "histogram", ("session",),
        "Wall time of each durable snapshot commit (encode + atomic "
        "write + fsync + retention GC).",
    ),
    "repro_durable_journal_records_total": (
        "counter", ("session", "kind"),
        "Write-ahead journal records appended, by kind "
        "(submit|deliver|abort).",
    ),
    "repro_durable_journal_lag": (
        "gauge", ("session",),
        "Journal records appended since the newest snapshot — the replay "
        "length a cold start would need (sampled at collect time).",
    ),
    "repro_durable_recoveries_total": (
        "counter", ("session", "outcome"),
        "Cold-start recoveries by outcome: restored (newest snapshot "
        "valid), fallback (corrupt generation(s) quarantined, an older "
        "one restored), fresh (no durable state found).",
    ),
}

#: The families both execution models (connector ports and basic channels)
#: emit — the cross-model metric contract
#: (``tests/runtime/test_observe.py::test_cross_model_metric_contract``).
#: Shed and dead-letter families are connector-only: overload
#: policy lives on connectors (DECISIONS row 26).
CONTRACT_FAMILIES = (
    "repro_ops_submitted_total",
    "repro_ops_completed_total",
    "repro_ops_withdrawn_total",
    "repro_buffer_occupancy",
)


# --------------------------------------------------------------------------
# Instruments
# --------------------------------------------------------------------------


class Counter:
    """Monotonically increasing count.  Mutation is lock-free: callers
    serialize through the owning component's lock (see module docstring)."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """A value that goes up and down.  Most runtime gauges are *sampled*
    (callback families, see :meth:`MetricsRegistry.set_callback`); direct
    children exist for hand-maintained gauges."""

    __slots__ = ("value",)

    def __init__(self):
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Fixed-boundary histogram: ``observe`` is a bisect plus three ``+=``
    — no per-sample allocation, no stored samples.

    ``boundaries`` are the *upper* bucket bounds; an implicit +Inf bucket
    catches the rest.  ``counts[i]`` is the non-cumulative count of bucket
    ``i`` (exporters cumulate, matching Prometheus ``le`` semantics).
    """

    __slots__ = ("boundaries", "counts", "sum", "count")

    def __init__(self, boundaries: Sequence[float] = DEFAULT_LATENCY_BUCKETS):
        self.boundaries = tuple(boundaries)
        if any(b2 <= b1 for b1, b2 in zip(self.boundaries, self.boundaries[1:])):
            raise ValueError("histogram boundaries must be strictly increasing")
        self.counts = [0] * (len(self.boundaries) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.boundaries, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> list[tuple[float, int]]:
        """(upper bound, cumulative count) pairs, +Inf last."""
        out, running = [], 0
        for bound, n in zip(self.boundaries + (float("inf"),), self.counts):
            running += n
            out.append((bound, running))
        return out


_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricFamily:
    """One named family: a type, label names, help text, and children keyed
    by label-value tuples.  ``labels(...)`` is the (locked) child factory —
    hook objects call it once per vertex and cache the result."""

    def __init__(self, name: str, kind: str, labelnames: tuple[str, ...],
                 help: str, buckets: Sequence[float] | None = None):
        if kind not in _TYPES:
            raise ValueError(f"unknown metric type {kind!r}")
        self.name = name
        self.kind = kind
        self.labelnames = labelnames
        self.help = help
        self.buckets = tuple(buckets) if buckets is not None else None
        self._children: dict[tuple[str, ...], Counter | Gauge | Histogram] = {}
        self._callbacks: dict[object, Callable[[], Iterable]] = {}
        self._lock = threading.Lock()

    def labels(self, *labelvalues: str):
        """The child instrument for one label-value combination."""
        if len(labelvalues) != len(self.labelnames):
            raise ValueError(
                f"{self.name} takes {len(self.labelnames)} label(s) "
                f"{self.labelnames}, got {len(labelvalues)}"
            )
        key = tuple(str(v) for v in labelvalues)
        with self._lock:
            child = self._children.get(key)
            if child is None:
                if self.kind == "histogram":
                    child = Histogram(self.buckets or DEFAULT_LATENCY_BUCKETS)
                else:
                    child = _TYPES[self.kind]()
                self._children[key] = child
            return child

    def set_callback(self, key, fn: Callable[[], Iterable] | None) -> None:
        """Install (or with ``fn=None`` remove) a pull-style sample source:
        at collect time ``fn()`` yields ``(labelvalues, value)`` pairs.
        Keyed so a re-attached component replaces its own callback instead
        of stacking a stale one."""
        with self._lock:
            if fn is None:
                self._callbacks.pop(key, None)
            else:
                self._callbacks[key] = fn

    def samples(self) -> list[tuple[tuple[str, ...], object]]:
        """(labelvalues, value) pairs; histogram values are the child
        itself.  Callback samples are appended after direct children."""
        with self._lock:
            out: list[tuple[tuple[str, ...], object]] = [
                (k, (c if self.kind == "histogram" else c.value))
                for k, c in sorted(self._children.items())
            ]
            callbacks = list(self._callbacks.values())
        for fn in callbacks:
            try:
                out.extend(
                    (tuple(str(v) for v in lv), float(val)) for lv, val in fn()
                )
            except Exception:  # noqa: BLE001 - a dying component must not
                continue       # break everyone else's metrics
        return out


class MetricsRegistry:
    """Thread-safe home of all metric families for one observation scope.

    Family lookups resolve their spec from :data:`CATALOGUE`; a name
    outside the catalogue needs an explicit ``help=``/``labelnames=``
    (application metrics are welcome, runtime metrics are closed — that is
    what keeps the docs complete).
    """

    def __init__(self):
        self._families: dict[str, MetricFamily] = {}
        self._lock = threading.Lock()

    def _family(self, name: str, kind: str, labelnames, help, buckets=None
                ) -> MetricFamily:
        with self._lock:
            fam = self._families.get(name)
            if fam is None:
                if help is None or labelnames is None:
                    spec = CATALOGUE.get(name)
                    if spec is None:
                        raise ValueError(
                            f"metric {name!r} is not in the runtime catalogue; "
                            "pass labelnames= and help= to declare an "
                            "application metric"
                        )
                    cat_kind, cat_labels, cat_help = spec
                    if cat_kind != kind:
                        raise ValueError(
                            f"metric {name!r} is a {cat_kind}, not a {kind}"
                        )
                    labelnames, help = cat_labels, cat_help
                fam = MetricFamily(name, kind, tuple(labelnames), help, buckets)
                self._families[name] = fam
            elif fam.kind != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {fam.kind}"
                )
            return fam

    def counter(self, name: str, labelnames=None, help=None) -> MetricFamily:
        return self._family(name, "counter", labelnames, help)

    def gauge(self, name: str, labelnames=None, help=None) -> MetricFamily:
        return self._family(name, "gauge", labelnames, help)

    def histogram(self, name: str, labelnames=None, help=None,
                  buckets: Sequence[float] | None = None) -> MetricFamily:
        return self._family(name, "histogram", labelnames, help, buckets)

    def collect(self) -> list[MetricFamily]:
        """Every registered family, in registration order."""
        with self._lock:
            return list(self._families.values())

    def family_names(self) -> set[str]:
        with self._lock:
            return set(self._families)


# --------------------------------------------------------------------------
# Component hook objects: pre-bound children, one None-check away from free.
# --------------------------------------------------------------------------


class ConnectorMetrics:
    """The engine-facing hook bundle for one connector instance.

    Created by :class:`~repro.runtime.connector.RuntimeConnector` when a
    registry is supplied, handed to the engine, and re-attached after every
    re-parametrization (the boundary vertex set changed, so the pre-bound
    children must be rebuilt).

    The hot-path surface is deliberately *attributes, not methods*: the
    engine indexes :attr:`sub_send` / :attr:`sub_recv` / :attr:`done` and
    bumps the found :class:`Counter`'s ``value`` inline, because at
    ~10 µs per global step even one Python call frame per hook is a
    measurable tax (``benchmarks/bench_observe.py`` pins the budget).  The
    per-vertex children are mutated only under the owning region's lock
    (every vertex belongs to exactly one region); children shared across
    regions (the latency histogram, the shed memo) are serialized by the
    engine's stat lock.  The sampled-gauge callbacks take the region locks
    themselves at collect time.  The cold-path event (:meth:`shed`) stays a
    method.
    """

    def __init__(self, registry: MetricsRegistry, connector: str):
        self.registry = registry
        self.connector = connector or "connector"
        c = self.connector
        #: Engine-facing fast-path children (see class docstring).  The
        #: step, scan and park totals are *pull-sampled* from counts the
        #: engine keeps anyway (``engine.steps`` / ``engine.scan_total`` /
        #: ``engine._parks``), so a fired step or a park pays nothing for
        #: them; see :meth:`attach_engine`.
        self.latency_child = registry.histogram(
            "repro_engine_step_latency_seconds").labels(c)
        self._fam_submitted = registry.counter("repro_ops_submitted_total")
        self._fam_completed = registry.counter("repro_ops_completed_total")
        self._fam_withdrawn = registry.counter("repro_ops_withdrawn_total")
        self._fam_shed = registry.counter("repro_overload_shed_total")
        #: vertex -> Counter, rebuilt by :meth:`attach_engine`.
        self.sub_send: dict[str, Counter] = {}
        self.sub_recv: dict[str, Counter] = {}
        self.done: dict[str, Counter] = {}
        self.wd_send: dict[str, Counter] = {}
        self.wd_recv: dict[str, Counter] = {}
        self._shed: dict[tuple[str, str], Counter] = {}

    # -- wiring (cold path) -------------------------------------------------

    def move_submitted(self, old: str, new: str, n: int, is_send: bool) -> None:
        """Move the submit count of ``n`` pending ops a re-parametrization
        re-labels from vertex ``old`` to ``new``: they complete, or are
        withdrawn, under ``new``, and each vertex's books must balance —
        the one place a submit counter goes down."""
        c, kind = self.connector, "send" if is_send else "recv"
        self._fam_submitted.labels(c, old, kind).value -= n
        self._fam_submitted.labels(c, new, kind).value += n

    def attach_engine(self, engine) -> None:
        """(Re)bind per-vertex children and sampled gauges to ``engine``'s
        current boundary signature.  Called at engine construction and
        again after every :meth:`~CoordinatorEngine.reconfigure`."""
        c = self.connector
        self.sub_send = {}
        self.sub_recv = {}
        self.done = {}
        self.wd_send = {}
        self.wd_recv = {}
        for v in engine.sources:
            self.sub_send[v] = self._fam_submitted.labels(c, v, "send")
            self.done[v] = self._fam_completed.labels(c, v, "send")
            self.wd_send[v] = self._fam_withdrawn.labels(c, v, "send")
        for v in engine.sinks:
            self.sub_recv[v] = self._fam_submitted.labels(c, v, "recv")
            self.done[v] = self._fam_completed.labels(c, v, "recv")
            self.wd_recv[v] = self._fam_withdrawn.labels(c, v, "recv")

        def pending_samples():
            # pending_depths() serializes against the firing hot path by
            # taking the engine's region locks (never the registry lock from
            # here — callbacks run outside every metrics-internal lock, see
            # MetricFamily.samples, so the lock order stays engine→leaf).
            return [((c, v, kind), float(depth))
                    for v, kind, depth in engine.pending_depths()]

        def occupancy_samples():
            return [((c,), float(engine.buffered_total()))]

        def dead_letter_samples():
            return [((c, v), float(n))
                    for v, n in engine.dead.retained().items()]

        def step_samples():
            return [((c,), float(engine.steps))]

        def scan_samples():
            return [((c,), float(engine.scan_total))]

        def park_samples():
            return [((c,), float(engine._parks))]

        self.registry.counter("repro_engine_steps_total").set_callback(
            self, step_samples)
        self.registry.counter(
            "repro_engine_scan_candidates_total").set_callback(
            self, scan_samples)
        self.registry.counter("repro_engine_parks_total").set_callback(
            self, park_samples)
        self.registry.gauge("repro_engine_pending_ops").set_callback(
            self, pending_samples)
        self.registry.gauge("repro_buffer_occupancy").set_callback(
            self, occupancy_samples)
        self.registry.gauge("repro_overload_dead_letters").set_callback(
            self, dead_letter_samples)

    # -- cold-path events (engine lock held) --------------------------------

    def shed(self, vertex: str, policy: str) -> None:
        child = self._shed.get((vertex, policy))
        if child is None:
            child = self._shed[(vertex, policy)] = self._fam_shed.labels(
                self.connector, vertex, policy)
        child.value += 1.0


class ChannelMetrics:
    """The basic-model twin of :class:`ConnectorMetrics`: the same
    cross-model families (:data:`CONTRACT_FAMILIES`), emitted by one
    channel pipe.  The channel name doubles as the vertex label (a channel
    *is* its single source/sink pair).  Push methods are called under the
    pipe's condition lock."""

    def __init__(self, registry: MetricsRegistry, channel: str):
        self.registry = registry
        self.channel = channel
        c = channel
        fam_sub = registry.counter("repro_ops_submitted_total")
        fam_done = registry.counter("repro_ops_completed_total")
        fam_wd = registry.counter("repro_ops_withdrawn_total")
        self._sub_send = fam_sub.labels(c, c, "send")
        self._sub_recv = fam_sub.labels(c, c, "recv")
        self._done_send = fam_done.labels(c, c, "send")
        self._done_recv = fam_done.labels(c, c, "recv")
        self._wd_send = fam_wd.labels(c, c, "send")
        self._wd_recv = fam_wd.labels(c, c, "recv")

    def attach_pipe(self, pipe) -> None:
        c = self.channel

        def occupancy_samples():
            return [((c,), float(pipe.occupancy()))]

        self.registry.gauge("repro_buffer_occupancy").set_callback(
            self, occupancy_samples)

    def op_submitted(self, is_send: bool) -> None:
        (self._sub_send if is_send else self._sub_recv).value += 1.0

    def op_completed(self, is_send: bool) -> None:
        (self._done_send if is_send else self._done_recv).value += 1.0

    def op_withdrawn(self, is_send: bool) -> None:
        (self._wd_send if is_send else self._wd_recv).value += 1.0


class TaskMetrics:
    """Supervision-facing hooks: crashes, restarts, departures, quarantines
    (all cold-path — a crash is never hot)."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._crashes = registry.counter("repro_task_crashes_total")
        self._restarts = registry.counter("repro_task_restarts_total")
        self._departures = registry.counter("repro_task_departures_total")
        self._quarantines = registry.counter("repro_watchdog_quarantines_total")

    def crashed(self, task: str, exc: BaseException) -> None:
        self._crashes.labels(task, type(exc).__name__).inc()

    def restarted(self, task: str) -> None:
        self._restarts.labels(task).inc()

    def departed(self, task: str) -> None:
        self._departures.labels(task).inc()

    def quarantined(self, task: str) -> None:
        self._quarantines.labels(task).inc()


class WatchdogMetrics:
    """Watchdog-facing hook: one counter bump per flagged stall episode."""

    def __init__(self, registry: MetricsRegistry):
        self.registry = registry
        self._stalls = registry.counter("repro_watchdog_stalls_total")

    def stalled(self, task: str) -> None:
        self._stalls.labels(task).inc()
