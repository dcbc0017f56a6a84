"""Trace-equivalence oracle — normalization and cross-mode diffing.

Normalization contract (see also the ordering contract in
:mod:`repro.runtime.trace` and docs/INTERNALS.md §10):

* **Per-port completion streams** — for every boundary vertex, the sequence
  of ``("send", value)`` / ``("recv", value)`` completions in submission
  order.  Mode-independent: computed from the operation handles, so it
  covers the channels model, which has no tracer.
* **Per-port synchronization sets** — for every boundary vertex, the
  sequence of ``(sorted(label ∩ boundary), delivered_value)`` pairs taken
  from the trace events whose boundary projection contains the vertex,
  ordered by the per-region sequence number ``rseq``.  A boundary vertex
  belongs to exactly one region, so this order is the region's
  deterministic firing order; the *global* ``seq`` interleaving across
  regions is scheduling noise and deliberately not compared.  Labels are
  projected to the boundary because lazy composition keeps internal
  vertices in labels while AOT composition hides them; events whose
  projection is empty (pure internal data movement) are dropped.
* **Residual buffer multiset** — the sorted multiset of all values still
  buffered at the end of the run.  Compared as a multiset because buffer
  *names* are a composition artifact (granularity-"small" partitions name
  buffers differently than the global "medium" composition) while the
  retained *values* are semantics.
* **Conservation** — per boundary vertex and kind, from the metrics
  registry: ``submitted == completed + shed + withdrawn`` (only sends
  shed).  Checked per run (per checkpoint segment — each segment gets a
  fresh registry), not across modes.

Two runs are equivalent iff their normalized forms are equal; the harness
additionally treats any in-run anomaly (operation left incomplete, missing
shed, conservation violation, unexpected error) as a divergence of that
run on its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunResult:
    """One mode's observations for one (program, script, schedule) run."""

    mode: str
    #: vertex -> [(kind, value), ...] in submission order.
    ports: dict[str, list] = field(default_factory=dict)
    #: vertex -> [(sync_set, delivered), ...] in rseq order, or None when
    #: the mode has no tracer (channels).
    sync_sets: dict[str, list] | None = None
    #: Sorted multiset of values still buffered at the end (None: channels).
    buffers: list | None = None
    #: vertex -> number of values shed (floods).
    sheds: dict[str, int] = field(default_factory=dict)
    #: Self-detected anomalies (non-empty means the run itself failed).
    anomalies: list[str] = field(default_factory=list)


def normalize_events(events, boundary) -> dict[str, list]:
    """Fold trace ``events`` into per-port sync-set sequences (module
    docstring).  ``events`` may span several checkpoint segments — pass
    them concatenated in segment order; ``rseq`` restarts per segment but
    the fold is order-preserving, so the concatenation stays canonical."""
    boundary = frozenset(boundary)
    per_port: dict[str, list] = {v: [] for v in boundary}
    for ev in events:
        sync = tuple(sorted(ev.label & boundary))
        if not sync:
            continue
        deliveries = dict(ev.deliveries)
        for v in sync:
            per_port[v].append((sync, deliveries.get(v)))
    return per_port


def conservation_violations(registry, *, label: str = "") -> list[str]:
    """Check ``submitted == completed + shed + withdrawn`` per
    (vertex, kind) over one metrics registry.  Returns human-readable
    violations.

    ``withdrawn`` (``repro_ops_withdrawn_total``) counts submissions that
    left the pending queue without completing — timeouts, failed ``try_*``
    probes, and failure deliveries (close/crash/deadlock) — which is what
    makes the law hold for timeout-driven callers (the serving layer's
    receive loops), not only for run-to-completion scripts."""

    def samples(name):
        for fam in registry.collect():
            if fam.name == name:
                return {lv: val for lv, val in fam.samples()}
        return {}

    submitted = samples("repro_ops_submitted_total")
    completed = samples("repro_ops_completed_total")
    withdrawn = samples("repro_ops_withdrawn_total")
    shed = samples("repro_overload_shed_total")
    shed_by_vertex: dict[tuple[str, str], float] = {}
    for (conn, vertex, _policy), val in shed.items():
        key = (conn, vertex)
        shed_by_vertex[key] = shed_by_vertex.get(key, 0.0) + val
    out = []
    for (conn, vertex, kind), sub in submitted.items():
        done = completed.get((conn, vertex, kind), 0.0)
        lost = withdrawn.get((conn, vertex, kind), 0.0)
        if kind == "send":
            lost += shed_by_vertex.get((conn, vertex), 0.0)
        if sub != done + lost:
            out.append(
                f"{label}{conn}/{vertex}/{kind}: submitted {sub:g} != "
                f"completed {done:g} + shed/withdrawn {lost:g}"
            )
    return out


def compare(results) -> list[str]:
    """Diff ``results`` (one :class:`RunResult` per mode) pairwise against
    the first connector-mode result.  Returns divergence descriptions —
    empty means all modes agree and no run self-reported an anomaly."""
    diffs: list[str] = []
    for r in results:
        for a in r.anomalies:
            diffs.append(f"[{r.mode}] {a}")
    tracked = [r for r in results if r.sync_sets is not None]
    if not tracked:
        return diffs
    ref = tracked[0]
    for other in results:
        if other is ref:
            continue
        if other.ports != ref.ports:
            diffs.append(
                f"[{ref.mode} vs {other.mode}] port completion streams "
                f"differ: {_first_port_diff(ref.ports, other.ports)}"
            )
        if other.sync_sets is not None and other.sync_sets != ref.sync_sets:
            diffs.append(
                f"[{ref.mode} vs {other.mode}] synchronization sets differ: "
                f"{_first_port_diff(ref.sync_sets, other.sync_sets)}"
            )
        if other.buffers is not None and ref.buffers is not None \
                and other.buffers != ref.buffers:
            diffs.append(
                f"[{ref.mode} vs {other.mode}] residual buffers differ: "
                f"{ref.buffers!r} vs {other.buffers!r}"
            )
        if other.sheds != ref.sheds:
            diffs.append(
                f"[{ref.mode} vs {other.mode}] shed counts differ: "
                f"{ref.sheds!r} vs {other.sheds!r}"
            )
    return diffs


def _first_port_diff(a: dict, b: dict) -> str:
    for v in sorted(set(a) | set(b)):
        if a.get(v) != b.get(v):
            return f"port {v!r}: {a.get(v)!r} vs {b.get(v)!r}"
    return "(structurally different port sets)"
