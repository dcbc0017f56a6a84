"""Observability layer: metric conservation, exporters, and the contract.

Pins the PR's acceptance criteria:

* **conservation laws** — under an overloaded shed_newest farm the metric
  totals balance exactly: ``delivered + shed == submitted`` and every
  count the registry reports equals the runtime's own books
  (``conn.steps``, ``shed_count()``, …);
* **exporter goldens** — the Prometheus, JSON, and Chrome-trace renderings
  of a hand-built registry/trace are byte-stable (``golden/``);
* **disabled by default** — an unmetered connector runs the
  pre-observability code path and writes nothing;
* **cross-model contract** — the basic channel model emits the same
  submission, completion, withdrawal and occupancy families
  (:data:`CONTRACT_FAMILIES`)
  as the connector model, so a dashboard built for one reads the other;
* **catalogue completeness** — every name in :data:`CATALOGUE` appears in
  docs/OBSERVABILITY.md's table and vice versa (docs cannot drift).
"""

import json
import pathlib
import re
import threading

import pytest

from repro.connectors import library
from repro.runtime.metrics import (
    CATALOGUE,
    CONTRACT_FAMILIES,
    LATENCY_STRIDE,
    Histogram,
    MetricsRegistry,
)
from repro.runtime.observe import (
    chrome_trace,
    render_chrome_trace,
    render_json,
    render_prometheus,
    run_observed_farm,
    snapshot,
)
from repro.runtime.ports import mkports
from repro.runtime.trace import TraceEvent

GOLDEN = pathlib.Path(__file__).parent / "golden"

OP_TIMEOUT = 5.0


def families_by_name(registry):
    return {fam.name: fam for fam in registry.collect()}


def sample_value(registry, name, labels):
    fam = families_by_name(registry)[name]
    for labelvalues, value in fam.samples():
        if labelvalues == labels:
            return value
    raise AssertionError(f"{name}{labels} not found in samples")


# --------------------------------------------------------------------------
# Registry semantics
# --------------------------------------------------------------------------


def test_catalogue_resolves_specs():
    reg = MetricsRegistry()
    fam = reg.counter("repro_engine_steps_total")
    assert fam.labelnames == ("connector",)
    assert "Fig. 12" in fam.help
    # idempotent: same family object comes back
    assert reg.counter("repro_engine_steps_total") is fam


def test_undeclared_names_need_explicit_spec():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="not in the runtime catalogue"):
        reg.counter("app_jobs_total")
    fam = reg.counter("app_jobs_total", labelnames=("queue",), help="app")
    fam.labels("q0").inc(3)
    assert sample_value(reg, "app_jobs_total", ("q0",)) == 3.0


def test_kind_mismatch_rejected():
    reg = MetricsRegistry()
    with pytest.raises(ValueError, match="is a counter"):
        reg.gauge("repro_engine_steps_total")
    reg.counter("repro_engine_steps_total")
    with pytest.raises(ValueError, match="already registered"):
        reg.histogram("repro_engine_steps_total")


def test_histogram_fixed_buckets():
    h = Histogram(boundaries=(0.1, 1.0))
    for v in (0.05, 0.5, 0.5, 5.0):
        h.observe(v)
    assert h.cumulative() == [(0.1, 1), (1.0, 3), (float("inf"), 4)]
    assert h.count == 4 and h.sum == pytest.approx(6.05)
    with pytest.raises(ValueError, match="strictly increasing"):
        Histogram(boundaries=(1.0, 1.0))


def test_callback_exceptions_isolated():
    reg = MetricsRegistry()
    fam = reg.gauge("repro_buffer_occupancy")
    fam.set_callback("bad", lambda: 1 / 0)
    fam.set_callback("good", lambda: [(("c",), 7.0)])
    assert (("c",), 7.0) in fam.samples()
    fam.set_callback("good", None)  # removal
    assert fam.samples() == []


# --------------------------------------------------------------------------
# Conservation laws (the farm, metered)
# --------------------------------------------------------------------------


@pytest.mark.fault_stress
def test_conservation_laws_under_shedding():
    """delivered + shed == submitted, as seen by *both* the runtime's own
    books and the metric registry — and the step counter is conn.steps."""
    run = run_observed_farm(jobs=120, workers=2, stall_phase=False)
    s = run.summary
    assert s["delivered"] + s["shed"] == s["submitted"] == 120

    reg = run.registry
    c = "EarlyAsyncRouter"
    tail = [lv for lv, _ in families_by_name(reg)[
        "repro_ops_submitted_total"].samples() if lv[2] == "send"][0][1]
    submitted = sample_value(
        reg, "repro_ops_submitted_total", (c, tail, "send"))
    assert submitted == s["submitted"]

    completed_fam = families_by_name(reg)["repro_ops_completed_total"]
    delivered = sum(
        v for lv, v in completed_fam.samples() if lv[2] == "recv")
    assert delivered == s["delivered"]
    # a shed send releases its submitter but never *fires*: it counts as
    # submitted, not completed — submitted == completed + shed, exactly
    sends_done = sample_value(
        reg, "repro_ops_completed_total", (c, tail, "send"))
    assert sends_done == s["delivered"]
    assert submitted == sends_done + s["shed"]

    shed_fam = families_by_name(reg)["repro_overload_shed_total"]
    shed = sum(v for lv, v in shed_fam.samples() if lv[0] == c)
    assert shed == s["shed"]
    assert all(lv[2] == "shed_newest" for lv, _ in shed_fam.samples())

    assert sample_value(reg, "repro_engine_steps_total", (c,)) == s["steps"]
    # scan effort: every fired step examined >= 1 candidate
    assert sample_value(
        reg, "repro_engine_scan_candidates_total", (c,)) >= s["steps"]


def test_parks_counter_is_the_engine_count():
    """``repro_engine_parks_total`` reads the engine's own park count at
    collect time: after a threaded rendezvous it equals ``stats()["parks"]``
    and is not zero (every step of Merger/2 parks one side or the other)."""
    reg = MetricsRegistry()
    conn = library.connector("Merger", 2, metrics=reg)
    outs, ins = mkports(2, 1)
    conn.connect(outs, ins)

    def produce():
        for i in range(200):
            outs[i % 2].send(i)

    producer = threading.Thread(target=produce)
    producer.start()
    got = [ins[0].recv(timeout=10) for _ in range(200)]
    producer.join(10)
    assert not producer.is_alive()
    assert got == list(range(200))
    parks = conn.stats()["parks"]
    assert parks > 0
    assert sample_value(reg, "repro_engine_parks_total", ("Merger",)) == parks
    conn.close()


@pytest.mark.fault_stress
def test_stall_and_quarantine_metrics():
    """Phase 2 of the observed farm: the watchdog's stall, the group's
    quarantine/departure, and the laggard's books all land in metrics."""
    run = run_observed_farm(jobs=40, workers=2, stall_phase=True)
    reg = run.registry
    assert run.summary["stalls"] >= 1
    assert run.summary["quarantined"]
    assert sample_value(
        reg, "repro_watchdog_stalls_total", ("laggard",)) >= 1
    assert sample_value(
        reg, "repro_watchdog_quarantines_total", ("laggard",)) == 1
    # a quarantine is counted as a quarantine, not a departure — the
    # departures counter is reserved for *crash*-driven re-parametrization
    departures = families_by_name(reg)["repro_task_departures_total"]
    assert all(lv != ("laggard",) for lv, _ in departures.samples())
    # no duplicate label sets anywhere, even after the quarantine's
    # re-parametrization re-attached the gauge callbacks
    for fam in reg.collect():
        labelsets = [lv for lv, _ in fam.samples()]
        assert len(labelsets) == len(set(labelsets)), fam.name


def test_latency_histogram_sampled():
    """The step-latency histogram records ~1/LATENCY_STRIDE of fired
    steps; counters stay exact."""
    reg = MetricsRegistry()
    conn = library.connector("FifoChain", 3, metrics=reg,
                             default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    for j in range(40):
        outs[0].send(j)
        assert ins[0].recv() == j
    hist = sample_value(
        reg, "repro_engine_step_latency_seconds", ("FifoChain",))
    steps = sample_value(reg, "repro_engine_steps_total", ("FifoChain",))
    assert steps == conn.steps
    assert 1 <= hist.count <= steps // LATENCY_STRIDE + 1
    conn.close()


def test_disabled_by_default_zero_writes():
    """Without ``metrics=`` the engine holds no hook bundle and never
    touches the metric-only accumulators — the pre-observability path."""
    conn = library.connector("FifoChain", 3, default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    for j in range(20):
        outs[0].send(j)
        ins[0].recv()
    assert conn.engine._metrics is None
    assert conn.engine.scan_total == 0  # only ever advanced when metered
    assert conn.steps > 0
    conn.close()


# --------------------------------------------------------------------------
# Cross-model contract: channels speak the same metric language
# --------------------------------------------------------------------------


def test_cross_model_metric_contract():
    from repro.runtime.channels import channel

    reg = MetricsRegistry()
    out, inp = channel(capacity=1, metrics=reg, name="jobs")
    out.send(0)                 # buffered: completes
    assert out.try_send(1) is False   # buffer full: refused, not counted
    got = [inp.recv()]
    out.send(2)                 # buffered again
    got.append(inp.recv())
    assert got == [0, 2]

    names = reg.family_names()
    assert set(CONTRACT_FAMILIES) <= names
    # every contract family is catalogued with identical type/labels for
    # both models (the registry resolves both from the same CATALOGUE)
    for n in CONTRACT_FAMILIES:
        assert n in CATALOGUE

    for kind in ("send", "recv"):
        labels = ("jobs", "jobs", kind)
        # same ledger as the connector model: submitted == completed
        assert sample_value(reg, "repro_ops_submitted_total", labels) == 2
        assert sample_value(reg, "repro_ops_completed_total", labels) == 2
    assert sample_value(reg, "repro_buffer_occupancy", ("jobs",)) == 0

    # a connector fills a superset of the channel surface
    reg2 = MetricsRegistry()
    conn = library.connector("FifoChain", 2, metrics=reg2,
                             default_timeout=OP_TIMEOUT)
    outs, ins = mkports(1, 1)
    conn.connect(outs, ins)
    outs[0].send("x")
    ins[0].recv()
    conn.close()
    assert set(CONTRACT_FAMILIES) <= reg2.family_names()


def test_channel_occupancy_gauge_tracks_bounded_buffer():
    """The sampled occupancy gauge reads what a bounded channel buffers:
    full at its capacity, and down again as the receiver drains it."""
    from repro.runtime.channels import channel

    reg = MetricsRegistry()
    out, inp = channel(capacity=2, metrics=reg, name="q")
    out.send("a")
    out.send("b")
    assert out.try_send("c") is False
    assert sample_value(reg, "repro_buffer_occupancy", ("q",)) == 2
    assert inp.recv() == "a"
    assert sample_value(reg, "repro_buffer_occupancy", ("q",)) == 1
    out.close()  # the close sentinel is not a buffered message
    assert sample_value(reg, "repro_buffer_occupancy", ("q",)) == 1


# --------------------------------------------------------------------------
# Exporter goldens (hand-built inputs: no live timestamps anywhere)
# --------------------------------------------------------------------------


def golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    steps = reg.counter("repro_engine_steps_total")
    steps.labels("Alternator").inc(42)
    lat = reg.histogram("repro_engine_step_latency_seconds",
                        buckets=(0.001, 0.01, 0.1))
    child = lat.labels("Alternator")
    for v in (0.0005, 0.002, 0.002, 0.05, 2.0):
        child.observe(v)
    shed = reg.counter("repro_overload_shed_total")
    shed.labels("Alternator", "x0", "shed_newest").inc(7)
    gauge = reg.gauge("repro_buffer_occupancy")
    gauge.set_callback("test", lambda: [(("Alternator",), 3.0)])
    return reg


def golden_events() -> list[TraceEvent]:
    return [
        TraceEvent(
            seq=0, region=0, label=frozenset({"x0", "x1"}),
            completed_sends=("x0",), completed_recvs=("x1",),
            deliveries=(("x1", "v0"),), t=10.0005,
            waits=(("x0", 0.0004), ("x1", 0.0001)),
        ),
        TraceEvent(  # a tau-step: fired, completed nothing
            seq=1, region=0, label=frozenset({"m"}),
            completed_sends=(), completed_recvs=(), deliveries=(),
            t=10.0010, waits=(),
        ),
        TraceEvent(  # recorded without timing: must be skipped
            seq=2, region=0, label=frozenset({"x0"}),
            completed_sends=("x0",), completed_recvs=(), deliveries=(),
        ),
        TraceEvent(
            seq=3, region=0, label=frozenset({"x0", "x1"}),
            completed_sends=("x0",), completed_recvs=("x1",),
            deliveries=(("x1", "v1"),), t=10.0030,
            waits=(("x0", 0.002), ("x1", 0.0)),
        ),
    ]


def check_golden(name: str, text: str):
    path = GOLDEN / name
    assert path.exists(), f"golden file {path} missing"
    assert text == path.read_text(), (
        f"{name} drifted from golden output; if the change is intended, "
        f"regenerate with tests/runtime/golden/regen.py"
    )


def test_prometheus_golden():
    check_golden("metrics.prom", render_prometheus(golden_registry()))


def test_json_golden():
    check_golden("metrics.json", render_json(golden_registry()) + "\n")


def test_chrome_trace_golden():
    text = render_chrome_trace(
        golden_events(), t0=10.0, vertex_parties={"x0": "producer"})
    check_golden("trace.json",
                 json.dumps(json.loads(text), indent=2) + "\n")


def test_prometheus_escaping_and_floats():
    reg = MetricsRegistry()
    fam = reg.counter("app_weird_total", labelnames=("k",),
                      help='has "quotes" and\nnewline')
    fam.labels('va"l\\ue').inc(1.5)
    text = render_prometheus(reg)
    assert '# HELP app_weird_total has \\"quotes\\" and\\nnewline' in text
    assert 'k="va\\"l\\\\ue"' in text
    assert "app_weird_total" in text and "1.5" in text


def test_json_snapshot_shape():
    snap = snapshot(golden_registry())
    byname = {f["name"]: f for f in snap["families"]}
    hist = byname["repro_engine_step_latency_seconds"]["samples"][0]
    assert hist["buckets"][-1][0] == "+Inf"
    assert hist["buckets"][-1][1] == hist["count"] == 5
    assert byname["repro_buffer_occupancy"]["samples"][0]["value"] == 3.0
    json.dumps(snap)  # JSON-serializable throughout


def test_chrome_trace_structure():
    doc = chrome_trace(golden_events(), t0=10.0,
                       vertex_parties={"x0": "producer"})
    events = doc["traceEvents"]
    meta = [e for e in events if e["ph"] == "M"]
    lanes = {e["args"]["name"] for e in meta if e["name"] == "thread_name"}
    assert lanes == {"steps", "producer:x0", "x1"}
    slices = [e for e in events if e["ph"] == "X"]
    # 3 timed steps + 4 operation spans; the untimed event contributes 0
    assert len([s for s in slices if s["tid"] == 0]) == 3
    assert len([s for s in slices if s["tid"] != 0]) == 4
    assert all(s["ts"] >= 0 and s["dur"] >= 1 for s in slices)
    span = [s for s in slices if s["name"] == "send x0" and s["args"]["seq"] == 3][0]
    assert span["ts"] == pytest.approx(1000, abs=1)   # (10.003 - 0.002 - 10) s -> us
    assert span["dur"] == pytest.approx(2000, abs=1)


# --------------------------------------------------------------------------
# Catalogue completeness: the docs cannot drift
# --------------------------------------------------------------------------


def test_every_metric_documented():
    doc = (pathlib.Path(__file__).parents[2] / "docs" /
           "OBSERVABILITY.md").read_text()
    documented = set(re.findall(r"`(repro_[a-z0-9_]+)`", doc))
    missing = set(CATALOGUE) - documented
    assert not missing, f"metrics missing from docs/OBSERVABILITY.md: {missing}"
    phantom = {
        n for n in documented
        if n not in CATALOGUE
        and not any(n.startswith(c) for c in CATALOGUE)  # _bucket/_sum/_count
    }
    assert not phantom, f"docs mention unknown metrics: {phantom}"


def test_contract_families_all_catalogued():
    assert set(CONTRACT_FAMILIES) <= set(CATALOGUE)
    for name, (kind, labels, help_) in CATALOGUE.items():
        assert name.startswith("repro_")
        assert kind in ("counter", "gauge", "histogram")
        assert labels and help_
