"""SLO-gated chaos load harness for the coordinator service.

``run_load`` drives a :class:`~repro.serve.service.CoordinatorService` at a
configurable multiple of its nominal capacity (default **4×** — sustained
overload, not a burst) across N sessions split over M tenants, with seeded
chaos injected per session (round-robin over the spec's ``chaos`` kinds:
recoverable worker crashes, pathologically slow workers, intake floods,
seeded latency jitter) and ``restarts`` rolling restarts of session ``s0``
mid-flight.  One extra admission attempt past the tenant quota probes the
rejection path.

After the run drains, the harness audits the books:

* **conservation** — per session, over that session's own registry:
  ``submitted == completed + shed + withdrawn`` per vertex and
  kind (:func:`repro.fuzz.oracle.conservation_violations`);
* **exactly-once** — on flood-free sessions every submit that returned
  ``"ok"`` appears exactly once in ``delivered + dead_letters`` — across
  crashes, restarts, and generation swaps (flooded sessions duplicate
  values *by design*, so they get the conservation audit only);
* **supervision** — no worker ended with an unabsorbed exception;
* **SLO** — submit-latency p99 under ``p99_budget`` seconds.

``record``/``check`` persist the report as ``BENCH_serve.json`` and gate a
fresh run against it — the serving layer's analogue of
``benchmarks/record.py``.
"""

from __future__ import annotations

import json
import math
import threading
import time
from dataclasses import asdict, dataclass, field

from repro.fuzz.oracle import conservation_violations
from repro.runtime.faults import FaultPlan, FaultSpec, InjectedFault
from repro.runtime.overload import OverloadPolicy
from repro.runtime.recovery import RestartPolicy
from repro.serve.admission import AdmissionController, AdmissionError, TenantSpec
from repro.serve.service import CoordinatorService
from repro.serve.session import SessionStateError

#: A fresh ``check`` run may be this many times slower than the recorded
#: p99 before the gate trips (load p99 is far noisier than the engine
#: microbenchmark, hence looser than ``benchmarks/record.py``'s 1.25).
LATENCY_BUDGET = 3.0

#: The chaos rotation ``run_load`` assigns round-robin by session index.
DEFAULT_CHAOS = ("crash_then_recover", "slow_task", "flood", "latency_spike")


@dataclass(frozen=True)
class LoadSpec:
    """One load-harness configuration (fully seeded; the chaos schedule —
    though not thread interleaving — is reproducible)."""

    sessions: int = 8
    tenants: int = 2
    workers: int = 2
    duration: float = 2.0
    #: Offered load per session as a multiple of nominal capacity
    #: (``workers / service_time``).
    overload: float = 4.0
    service_time: float = 0.002
    #: Concurrent producer threads per session.  A lone synchronous
    #: producer can never hold more than one operation pending, so the shed
    #: path would stay cold no matter the offered rate — keep this above
    #: ``max_pending`` to make the overload policy actually fire.
    producers: int = 6
    #: Per-vertex admission bound of the tenant overload policy.
    max_pending: int = 4
    seed: int = 0
    chaos: tuple = DEFAULT_CHAOS
    #: Rolling restarts of session ``s0`` spread across the run.
    restarts: int = 1
    #: SLO gate: submit-latency p99 must stay under this many seconds.
    p99_budget: float = 0.25
    submit_timeout: float = 5.0
    #: Arm the service's progress-based stall detector (None = off; the
    #: default chaos includes a deliberately slow session, so only enable
    #: with a bound comfortably above ``service_time``).
    stall_after: float | None = None

    def capacity(self) -> float:
        """Nominal deliveries/second of one session's farm."""
        if self.service_time <= 0.0:
            return 2000.0 * self.workers
        return self.workers / self.service_time


@dataclass
class LoadReport:
    """What one ``run_load`` observed, plus the audit verdicts."""

    spec: dict
    sessions: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    p50: float = 0.0
    p99: float = 0.0
    max_latency: float = 0.0
    restarts_done: int = 0
    admission: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)
    exactly_once_failures: list = field(default_factory=list)
    supervisor_failures: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    wall: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        out = asdict(self)
        out["ok"] = self.ok
        return out


def _percentile(latencies: list, q: float) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    return ordered[min(len(ordered) - 1, int(q * (len(ordered) - 1) + 0.5))]


def _plan_for(kind: str | None, name: str, spec: LoadSpec) -> FaultPlan | None:
    """The seeded chaos plan for one session.  Crash/slow kinds target a
    *worker* inport (the supervised side — the producer thread must never
    be the one crashed); overload/jitter kinds target the intake."""
    if kind is None:
        return None
    intake, w0 = f"{name}:intake", f"{name}:w0"
    if kind == "crash_then_recover":
        specs = [FaultSpec("crash_then_recover", w0, at_op=5)]
    elif kind == "slow_task":
        specs = [FaultSpec("slow_task", w0, at_op=10,
                           delay=max(spec.service_time, 0.002))]
    elif kind == "flood":
        specs = [FaultSpec("flood", intake, at_op=7, factor=2)]
    elif kind == "latency_spike":
        specs = [FaultSpec("latency_spike", intake, at_op=5, delay=0.004,
                           seed=spec.seed)]
    else:
        raise ValueError(f"unknown chaos kind {kind!r}")
    return FaultPlan(specs, name=f"{name}:{kind}")


class _Producer(threading.Thread):
    """One paced submitter thread: a session's producers together offer
    ``overload × capacity`` values/second of unique ids until the
    deadline."""

    def __init__(self, service: CoordinatorService, name: str, rank: int,
                 spec: LoadSpec, deadline: float):
        super().__init__(name=f"load:{name}:{rank}", daemon=True)
        self.service = service
        self.session_name = name
        self.rank = rank
        self.spec = spec
        self.deadline = deadline
        self.ok_ids: list[str] = []
        self.counts = {"submitted": 0, "ok": 0, "timeout": 0}
        self.latencies: list[float] = []
        self.error: BaseException | None = None

    def run(self) -> None:
        interval = max(1, self.spec.producers) / (
            self.spec.overload * self.spec.capacity()
        )
        next_t = time.monotonic()
        seq = 0
        try:
            while time.monotonic() < self.deadline:
                vid = f"{self.session_name}:{self.rank}:{seq}"
                seq += 1
                t0 = time.perf_counter()
                try:
                    outcome = self.service.submit(
                        self.session_name, vid,
                        timeout=self.spec.submit_timeout,
                    )
                except SessionStateError:
                    return  # quarantined or closed under us: stop offering
                self.latencies.append(time.perf_counter() - t0)
                self.counts["submitted"] += 1
                self.counts[outcome] += 1
                if outcome == "ok":
                    self.ok_ids.append(vid)
                next_t += interval
                nap = next_t - time.monotonic()
                if nap > 0:
                    time.sleep(nap)
                else:
                    next_t = time.monotonic()  # behind: do not burst-catch-up
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            self.error = exc


def run_load(spec: LoadSpec = LoadSpec()) -> LoadReport:
    """Drive the service per ``spec``; returns the audited
    :class:`LoadReport` (``report.ok`` is the SLO gate)."""
    t_start = time.perf_counter()
    kinds = tuple(spec.chaos)
    quota = max(1, math.ceil(spec.sessions / max(1, spec.tenants)))
    policy = OverloadPolicy(
        "shed_newest", max_pending=spec.max_pending,
        # retain every shed value: the exactly-once audit needs the full
        # dead-letter record, so eviction is sized out of the picture
        dead_letter_capacity=max(100_000, spec.max_pending),
    )
    controller = AdmissionController(tenants=tuple(
        TenantSpec(f"t{j}", max_sessions=quota, overload=policy,
                   workers=spec.workers)
        for j in range(max(1, spec.tenants))
    ))
    restart_policy = RestartPolicy(
        max_retries=4, backoff_base=0.005, backoff_max=0.05,
        seed=spec.seed, restart_on=(InjectedFault,),
    )
    service = CoordinatorService(controller, stall_after=spec.stall_after)
    service.start()

    names = [f"s{i}" for i in range(spec.sessions)]
    chaos_of: dict[str, str | None] = {}
    plans: dict[str, FaultPlan | None] = {}
    for i, name in enumerate(names):
        kind = kinds[i % len(kinds)] if kinds else None
        chaos_of[name] = kind
        plans[name] = _plan_for(kind, name, spec)
        service.open_session(
            name, tenant=f"t{i % max(1, spec.tenants)}",
            fault_plan=plans[name], service_time=spec.service_time,
            restart_policy=restart_policy,
        )

    # probe the admission-rejection path: tenant t0 is now at quota
    admission_rejected = False
    try:
        service.open_session("overflow", tenant="t0")
    except AdmissionError:
        admission_rejected = True

    deadline = time.monotonic() + spec.duration
    producers = [
        _Producer(service, name, rank, spec, deadline)
        for name in names for rank in range(max(1, spec.producers))
    ]
    for producer in producers:
        producer.start()

    restarts_done = 0
    restart_errors: list[str] = []
    for _ in range(spec.restarts):
        time.sleep(spec.duration / (spec.restarts + 1))
        try:
            service.rolling_restart(names[0])
            restarts_done += 1
        except Exception as exc:  # noqa: BLE001 - audited below
            restart_errors.append(f"rolling restart of {names[0]}: {exc!r}")

    for producer in producers:
        producer.join(timeout=spec.duration + spec.submit_timeout + 30.0)
    service.close()

    report = LoadReport(spec=asdict(spec))
    report.restarts_done = restarts_done
    report.failures.extend(restart_errors)
    report.admission = {
        "quota_per_tenant": quota,
        "rejection_probed": admission_rejected,
    }
    if not admission_rejected:
        report.failures.append(
            "admission probe past the tenant quota was not rejected"
        )

    latencies: list[float] = []
    totals = {"submitted": 0, "ok": 0, "timeout": 0,
              "delivered": 0, "dead_letters": 0}
    for producer in producers:
        if producer.is_alive():
            report.failures.append(f"producer {producer.name} failed to stop")
        if producer.error is not None:
            report.failures.append(
                f"producer {producer.name} crashed: {producer.error!r}"
            )
        latencies.extend(producer.latencies)

    for name in names:
        mine = [p for p in producers if p.session_name == name]
        session = service.session(name)
        delivered = list(session.delivered)
        dead = list(session.dead_letters())
        row = {key: sum(p.counts[key] for p in mine)
               for key in ("submitted", "ok", "timeout")}
        row.update(
            chaos=chaos_of[name],
            delivered=len(delivered),
            dead_letters=len(dead),
            dropped=len(session.dropped),
            restarts=session.restarts,
            faults_applied=[str(s) for s in plans[name].applied]
            if plans[name] is not None else [],
        )
        report.sessions[name] = row
        for key in ("submitted", "ok", "timeout"):
            totals[key] += row[key]
        totals["delivered"] += len(delivered)
        totals["dead_letters"] += len(dead)

        # conservation: every session, over its own registry
        report.violations.extend(conservation_violations(
            session.registry, label=f"{name}: "
        ))

        # exactly-once: flood-free sessions only (floods duplicate by design)
        if chaos_of[name] != "flood":
            landed = (delivered + [letter.value for letter in dead]
                      + list(session.dropped))
            if len(landed) != len(set(landed)):
                report.exactly_once_failures.append(
                    f"{name}: duplicate deliveries"
                )
            admitted = {vid for p in mine for vid in p.ok_ids}
            missing = admitted - set(landed)
            if missing:
                report.exactly_once_failures.append(
                    f"{name}: {len(missing)} admitted value(s) vanished "
                    f"(e.g. {sorted(missing)[:3]})"
                )

        # supervision: no worker may end with an unabsorbed exception
        for record in session._group.handles:
            if record.exception is not None and not record.departed:
                report.supervisor_failures.append(
                    f"{name}/{record.name}: {record.exception!r}"
                )

    report.totals = totals
    report.p50 = _percentile(latencies, 0.50)
    report.p99 = _percentile(latencies, 0.99)
    report.max_latency = max(latencies) if latencies else 0.0

    if report.violations:
        report.failures.append(
            f"{len(report.violations)} conservation violation(s)"
        )
    if report.exactly_once_failures:
        report.failures.append(
            f"{len(report.exactly_once_failures)} exactly-once failure(s)"
        )
    if report.supervisor_failures:
        report.failures.append(
            f"{len(report.supervisor_failures)} unhandled supervisor "
            "exception(s)"
        )
    if restarts_done < spec.restarts:
        report.failures.append(
            f"only {restarts_done}/{spec.restarts} rolling restarts completed"
        )
    if report.p99 > spec.p99_budget:
        report.failures.append(
            f"p99 {report.p99:.4f}s over the {spec.p99_budget:.4f}s budget"
        )
    report.wall = time.perf_counter() - t_start
    return report


# -- the BENCH_serve.json gate ----------------------------------------------

def record(path: str, spec: LoadSpec = LoadSpec()) -> LoadReport:
    """Run the harness and persist spec + report as the baseline."""
    report = run_load(spec)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spec": asdict(spec), "report": report.as_dict()},
                  fh, indent=2, sort_keys=True)
        fh.write("\n")
    return report


def check(path: str) -> tuple[bool, list[str], LoadReport]:
    """Re-run the baseline's spec and gate the fresh report: every audit
    must pass and p99 may regress at most ``LATENCY_BUDGET``× against the
    recorded value (never below the spec's own absolute budget)."""
    with open(path, encoding="utf-8") as fh:
        baseline = json.load(fh)
    spec_dict = dict(baseline["spec"])
    spec_dict["chaos"] = tuple(spec_dict.get("chaos", DEFAULT_CHAOS))
    spec = LoadSpec(**spec_dict)
    fresh = run_load(spec)
    messages = list(fresh.failures)
    allowed = max(baseline["report"]["p99"] * LATENCY_BUDGET, spec.p99_budget)
    if fresh.p99 > allowed:
        messages.append(
            f"p99 {fresh.p99:.4f}s over the recorded-baseline gate "
            f"{allowed:.4f}s (recorded {baseline['report']['p99']:.4f}s "
            f"x {LATENCY_BUDGET})"
        )
    return (not messages, messages, fresh)
