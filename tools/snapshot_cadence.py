"""Periodic-snapshot cadence of a durable CoordinatorService.

    PYTHONPATH=src python tools/snapshot_cadence.py --sessions 4 16 \\
        --interval 0.05 --seconds 10

For each session count, opens that many durable sessions in a fresh state
directory, feeds each from one client thread (a submit every ``--gap``
seconds) and lets the service's periodic snapshot run for ``--seconds``.
Prints one JSON line per count:

* ``gens_per_s`` — snapshot generations one session commits per second,
  mean over the sessions, beside ``ideal`` = 1 / interval;
* ``lag_mean`` / ``lag_max`` — the journal lag (records appended since a
  session's newest snapshot, the replay a cold start would need), sampled
  every 10 ms over every session;
* ``submits_per_s`` — what the clients got through, all sessions together.

Uses only ``CoordinatorService(state_dir=, auto_checkpoint=)``, so the
same script measures any checkout that has that surface.
"""

from __future__ import annotations

import argparse
import json
import tempfile
import threading
import time

from repro.runtime.overload import OverloadPolicy
from repro.serve.admission import AdmissionController, TenantSpec
from repro.serve.service import CoordinatorService


def _lag(session) -> int:
    for fam in session.registry.collect():
        if fam.name == "repro_durable_journal_lag":
            return int(sum(v for _, v in fam.samples()))
    return 0


def measure(sessions: int, interval: float, seconds: float, gap: float,
            root: str) -> dict:
    admission = AdmissionController(
        default=TenantSpec("default", max_sessions=sessions))
    svc = CoordinatorService(admission, state_dir=root,
                             auto_checkpoint=interval)
    stop = threading.Event()
    submitted = [0] * sessions

    def client(k: int) -> None:
        name, i = f"s{k}", 0
        while not stop.is_set():
            if svc.submit(name, f"{k}:{i}", timeout=10.0) == "ok":
                submitted[k] += 1
            i += 1
            time.sleep(gap)

    try:
        opened = [svc.open_session(f"s{k}", policy=OverloadPolicy("block"))
                  for k in range(sessions)]
        first = [max(s.durability.store.generations()) for s in opened]
        clients = [threading.Thread(target=client, args=(k,), daemon=True)
                   for k in range(sessions)]
        for t in clients:
            t.start()
        lags: list[int] = []
        start = time.monotonic()
        while time.monotonic() - start < seconds:
            lags.extend(_lag(s) for s in opened)
            time.sleep(0.01)
        elapsed = time.monotonic() - start
        gens = [max(s.durability.store.generations()) - g
                for s, g in zip(opened, first)]
        stop.set()
        for t in clients:
            t.join(15.0)
    finally:
        stop.set()
        svc.close()
    return {
        "sessions": sessions,
        "interval": interval,
        "gens_per_s": round(sum(gens) / len(gens) / elapsed, 2),
        "ideal": round(1 / interval, 2),
        "lag_mean": round(sum(lags) / len(lags), 1),
        "lag_max": max(lags),
        "submits_per_s": round(sum(submitted) / elapsed),
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--sessions", type=int, nargs="+", default=[4])
    p.add_argument("--interval", type=float, default=0.05)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--gap", type=float, default=0.005,
                   help="seconds between one client's submits")
    args = p.parse_args(argv)
    for n in args.sessions:
        with tempfile.TemporaryDirectory() as root:
            print(json.dumps(measure(n, args.interval, args.seconds,
                                     args.gap, root)), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
