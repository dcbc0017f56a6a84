"""Overload response of a bounded work farm, policy by policy.

A two-worker farm (EarlyAsyncRouter intake → workers → EarlyAsyncMerger
gather) with a fixed per-job service time is driven by a producer pacing
jobs at 1×, 2× and 4× the farm's service capacity.  Per overload policy on
the intake vertex this records:

* **throughput** — completed jobs per second (can never exceed capacity;
  the policy decides who eats the excess);
* **p99 latency** — send→collect for *delivered* jobs (``block`` converts
  overload into producer wait time, ``shed_newest`` into dead letters —
  the delivered jobs stay fast);
* **intake behaviour** — submitted / delivered / shed counts, which must
  satisfy exact conservation under both policies.

Numbers land in ``benchmark.extra_info`` (JSON via ``--benchmark-json``)
like every other experiment in this suite; run with ``-s`` for the table.
"""

import threading
import time

import pytest

from repro.connectors import library
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import mkports
from repro.util.errors import PortClosedError

POLICIES = ("block", "shed_newest")
FACTORS = (1, 2, 4)

N_WORKERS = 2
SERVICE_S = 0.001  # per-job service time → capacity = N_WORKERS / SERVICE_S
WINDOW_S = 0.3
OP_TIMEOUT = 10.0


def run_farm(policy_kind: str, factor: int) -> dict:
    route = library.connector(
        "EarlyAsyncRouter", N_WORKERS,
        overload=OverloadPolicy(policy_kind, max_pending=0),
        default_timeout=OP_TIMEOUT,
    )
    gather = library.connector(
        "EarlyAsyncMerger", N_WORKERS, default_timeout=OP_TIMEOUT
    )
    (job_out,), _ = mkports(1, 0)
    _, worker_ins = mkports(0, N_WORKERS)
    route.connect([job_out], worker_ins)
    worker_outs, (result_in,) = mkports(N_WORKERS, 1)
    gather.connect(worker_outs, [result_in])

    latencies: list[float] = []

    def worker(rank: int):
        try:
            while True:
                job = worker_ins[rank].recv()
                time.sleep(SERVICE_S)
                worker_outs[rank].send(job)
        except PortClosedError:
            return

    def collector():
        try:
            while True:
                t_sent, _seq = result_in.recv()
                latencies.append(time.monotonic() - t_sent)
        except PortClosedError:
            return

    threads = [
        threading.Thread(target=worker, args=(r,)) for r in range(N_WORKERS)
    ] + [threading.Thread(target=collector)]
    for t in threads:
        t.start()

    # Pace the producer at factor × capacity (best effort: when the policy
    # blocks, the send itself throttles the loop — that *is* backpressure).
    interval = SERVICE_S / (N_WORKERS * factor)
    submitted = 0
    t0 = time.monotonic()
    deadline = t0 + WINDOW_S
    next_t = t0
    while (now := time.monotonic()) < deadline:
        if now < next_t:
            time.sleep(next_t - now)
        next_t += interval
        submitted += 1
        job_out.send((time.monotonic(), submitted))
    produce_s = time.monotonic() - t0

    route.drain(timeout=OP_TIMEOUT)  # flush admitted jobs, close intake
    for t in threads[:N_WORKERS]:
        t.join(OP_TIMEOUT)
    gather.drain(timeout=OP_TIMEOUT)  # flush gathered results, close
    threads[-1].join(OP_TIMEOUT)

    shed = route.shed_count()
    delivered = len(latencies)
    lat = sorted(latencies)
    p99 = lat[int(0.99 * (len(lat) - 1))] if lat else float("nan")
    return {
        "policy": policy_kind,
        "factor": factor,
        "submitted": submitted,
        "delivered": delivered,
        "shed": shed,
        "throughput_jobs_s": round(delivered / produce_s, 1),
        "p99_ms": round(p99 * 1e3, 3),
    }


@pytest.mark.parametrize("policy", POLICIES)
def test_overload_response(benchmark, once, policy):
    def run():
        return [run_farm(policy, f) for f in FACTORS]

    rows = once(run)
    print(f"\n{'policy':>12} {'ovl':>4} {'subm':>6} {'done':>6} "
          f"{'shed':>6} {'jobs/s':>8} {'p99 ms':>8}")
    for row in rows:
        print(f"{row['policy']:>12} {row['factor']:>3}x {row['submitted']:>6} "
              f"{row['delivered']:>6} {row['shed']:>6} "
              f"{row['throughput_jobs_s']:>8} {row['p99_ms']:>8}")
        benchmark.extra_info[f"{row['factor']}x"] = row
        assert row["delivered"] > 0  # forward progress at every overload
        # Exact conservation: every submitted job is delivered once or
        # dead-lettered once (drain flushed the in-flight remainder).
        assert row["delivered"] + row["shed"] == row["submitted"]
        if policy == "block":
            assert row["shed"] == 0

    at4 = {r["factor"]: r for r in rows}[4]
    if policy == "shed_newest":
        # shed_newest keeps the producer live under 4× load:
        # it must manage strictly more send attempts than the farm can
        # serve in the window (a blocked producer is capped at capacity).
        assert at4["submitted"] > at4["delivered"]
