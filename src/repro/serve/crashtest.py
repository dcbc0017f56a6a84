"""The kill-9 chaos harness — proof that durable sessions are crash-consistent.

``python -m repro serve --crash-test --state-dir DIR`` drives the real
daemon (:mod:`repro.serve.daemon`) as a subprocess and murders it:

1. spawn ``python -m repro serve --daemon --state-dir DIR`` with an
   aggressive auto-checkpoint interval (so kills land mid-snapshot);
2. open sessions (explicit ``block`` policy — a shedding policy would
   legitimately drop acknowledged values into dead letters, which is
   admission control, not data loss) and submit a stream of globally
   unique values, bookkeeping each as *unacked* before the request goes
   out and *acked* only when the daemon's ``result: ok`` response arrives;
3. at a seeded random instant — sometimes microseconds after spawn, to
   land mid-restore — deliver ``SIGKILL``.  No warning, no flush, no
   handler;
4. with seeded probability, additionally corrupt the durable files the
   corpse left behind via :func:`repro.runtime.faults.torn_write`
   (newest snapshot when an older generation exists to fall back to;
   journal tail only where the torn record is a delivery or an
   unacknowledged admission — tearing an *acknowledged* admission intent
   would simulate media loss of fsynced data, which is outside the
   kill-9 fault model);
5. restart from the same ``--state-dir`` and repeat, ``--kills`` times;
6. final epoch: no kill — drain to quiescence, read every session's
   delivery book, and audit.

**The audit** (per session, over the client's own books): every
acknowledged value appears in the final delivered log exactly once
(zero loss); every delivered value is one the client submitted, and none
appears twice (zero duplication — unique values make multiplicity
checkable by set arithmetic); values whose submit response never arrived
(in flight at kill time) may legitimately land either way; the durable
delivery book's sequence numbers are strictly increasing and agree with
the visible delivered log.  Any violation fails the run; the full
evidence goes into the ``--out`` JSON report (the CI artifact).
"""

from __future__ import annotations

import json
import os
import pathlib
import queue
import random
import signal
import subprocess
import sys
import threading
import time

from repro.runtime.durable import strip_padding
from repro.runtime.faults import torn_write

#: Auto-checkpoint interval handed to the daemon under test: aggressive,
#: so that seeded kills frequently land inside a snapshot commit.
CHECKPOINT_INTERVAL = 0.05

#: Per-request response timeout against a *live* daemon (a dead daemon is
#: detected immediately; a live one exceeding this is a hang violation).
REQUEST_TIMEOUT = 15.0


class DaemonClient:
    """One daemon subprocess incarnation: spawn, speak JSON-lines, kill."""

    def __init__(self, state_dir: str):
        # A write to a daemon just killed must raise BrokenPipeError here
        # (``request`` returns None), not end the harness: ``python -m repro``
        # restores SIGPIPE's default action for ``| head``.
        signal.signal(signal.SIGPIPE, signal.SIG_IGN)
        src_root = pathlib.Path(__file__).resolve().parents[2]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(src_root), env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--daemon",
             "--state-dir", state_dir,
             "--checkpoint-interval", str(CHECKPOINT_INTERVAL)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, env=env,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._pump, daemon=True)
        self._reader.start()

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)  # EOF marker

    def _next(self, timeout: float):
        try:
            line = self._lines.get(timeout=timeout)
        except queue.Empty:
            return "hang"
        if line is None:
            return None  # daemon died
        return json.loads(line)

    def wait_ready(self, timeout: float = REQUEST_TIMEOUT):
        msg = self._next(timeout)
        if msg in (None, "hang") or msg.get("event") != "ready":
            return None
        return msg

    def request(self, req: dict, timeout: float = REQUEST_TIMEOUT):
        """Send one request; returns the response dict, ``None`` if the
        daemon died first, or the string ``"hang"`` on a live-daemon
        timeout (an audit violation, not a crash)."""
        try:
            self.proc.stdin.write(json.dumps(req) + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError):
            return None
        msg = self._next(timeout)
        if msg == "hang" and self.proc.poll() is not None:
            return None  # died between write and read
        return msg

    def kill(self) -> None:
        try:
            self.proc.send_signal(signal.SIGKILL)
        except OSError:  # pragma: no cover - already gone
            pass
        self.proc.wait()

    def reap(self, timeout: float = REQUEST_TIMEOUT) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:  # pragma: no cover
            self.proc.kill()
            self.proc.wait()


def _journal_tear_is_safe(path: pathlib.Path, acked: set) -> bool:
    """Tearing a journal's last record simulates the kill landing one
    moment earlier — legitimate only if that record's operation was never
    acknowledged to the client (a ``deliver``, or a ``submit`` whose value
    is not in the acked set).  Tearing an acked submit or an abort would
    simulate loss of fsync-durable data instead.  A live journal's last
    record is the last one before its NUL padding."""
    try:
        last = strip_padding(path.read_bytes()).splitlines()[-1]
        record = json.loads(last.split(b" ", 1)[1])
    except (OSError, IndexError, ValueError):
        return False
    kind = record.get("kind")
    if kind == "deliver":
        return True
    if kind == "submit":
        return record.get("value") not in acked
    return False  # abort, or the header record


def _maybe_tear(state_dir: str, rng: random.Random, acked_all: set):
    """Seeded post-mortem corruption of the durable files (step 4)."""
    if rng.random() >= 0.5:
        return None
    root = pathlib.Path(state_dir)
    snapshots = sorted(root.glob("*/snapshot-*.ckpt"))
    journals = sorted(root.glob("*/journal-*.wal"))
    candidates = []
    # Newest snapshot only when its session has an older generation to
    # fall back to (a corrupt *sole* generation is unrecoverable loss by
    # construction — outside the model this harness audits).
    by_dir: dict = {}
    for p in snapshots:
        by_dir.setdefault(p.parent, []).append(p)
    for gens in by_dir.values():
        if len(gens) >= 2:
            candidates.append(("snapshot", gens[-1]))
    for p in journals:
        if _journal_tear_is_safe(p, acked_all):
            candidates.append(("journal", p))
    if not candidates:
        return None
    which, path = candidates[rng.randrange(len(candidates))]
    report = torn_write(path, seed=rng.randrange(1 << 30))
    report["target"] = which
    return report


def run_crash_test(
    state_dir: str | None = None,
    *,
    kills: int = 10,
    seed: int = 0,
    budget: float = 90.0,
    sessions: int = 2,
    workers: int = 2,
    out: str | None = None,
) -> dict:
    """Run the full kill-9 campaign; returns the report dict
    (``report["ok"]`` is the pass/fail verdict)."""
    import tempfile

    cleanup = None
    if state_dir is None:
        cleanup = tempfile.TemporaryDirectory(prefix="repro-crashtest-")
        state_dir = cleanup.name
    rng = random.Random(seed)
    t0 = time.monotonic()
    deadline = t0 + budget
    names = [f"crash{j}" for j in range(sessions)]
    acked: dict[str, list] = {n: [] for n in names}
    unacked: dict[str, set] = {n: set() for n in names}
    acked_all: set = set()
    violations: list[str] = []
    epochs: list[dict] = []
    counter = 0

    def run_epoch(epoch: int, kill_after: float | None,
                  during_recovery: bool = False) -> dict:
        nonlocal counter
        info: dict = {"epoch": epoch, "kill_after": kill_after,
                      "during_recovery": during_recovery}
        client = DaemonClient(state_dir)
        killer = None
        # Mid-recovery kills arm the timer before the daemon is even up, so
        # the SIGKILL lands inside startup/restore.  Mid-serving kills arm
        # it only after ``ready``: startup time varies with machine load,
        # and counting it against ``kill_after`` would starve the serving
        # phase entirely on a loaded box (zero submits ever acked).
        if kill_after is not None and during_recovery:
            killer = threading.Timer(kill_after, client.kill)
            killer.start()
        ready = client.wait_ready()
        if ready is None:
            # killed during startup/recovery (the mid-restore kill point)
            info["phase"] = "killed-during-recovery"
            client.reap()
            return info
        if ready == "hang":
            violations.append(f"epoch {epoch}: daemon hung during recovery")
            client.kill()
            return info
        if kill_after is not None and not during_recovery:
            killer = threading.Timer(kill_after, client.kill)
            killer.start()
        info["recovered"] = ready.get("recovered", [])
        submitted = 0
        for name in names:
            if name in info["recovered"]:
                continue
            resp = client.request({
                "op": "open", "name": name, "workers": workers,
                "policy": {"kind": "block"},
            })
            if resp is None:
                info["phase"] = "killed-during-open"
                client.reap()
                return info
            if resp == "hang":
                violations.append(f"epoch {epoch}: open({name}) hung")
                client.kill()
                return info
            if not resp.get("ok") and "already exists" not in str(
                resp.get("message", "")
            ):
                violations.append(
                    f"epoch {epoch}: open({name}) failed: {resp}"
                )
        while True:
            if time.monotonic() >= deadline:
                break
            if client.proc.poll() is not None:
                break
            name = names[counter % len(names)]
            value = f"{name}:{epoch}:{counter}"
            counter += 1
            # bookkeeping *before* the request: if the kill lands mid-
            # flight, the value is legitimately uncertain.
            unacked[name].add(value)
            resp = client.request({"op": "submit", "name": name,
                                   "value": value})
            if resp is None:
                break  # killed mid-submit: value stays unacked
            if resp == "hang":
                violations.append(
                    f"epoch {epoch}: submit({value}) hung on a live daemon"
                )
                client.kill()
                break
            unacked[name].discard(value)
            if resp.get("result") == "ok":
                acked[name].append(value)
                acked_all.add(value)
            elif not resp.get("ok"):
                violations.append(
                    f"epoch {epoch}: submit({value}) errored: {resp}"
                )
            submitted += 1
            if submitted % 7 == 0:
                # explicit durable checkpoints between the auto ones
                resp = client.request({"op": "checkpoint",
                                       "name": name})
                if resp is None:
                    break  # killed mid-checkpoint commit
                if resp == "hang":
                    violations.append(
                        f"epoch {epoch}: checkpoint({name}) hung"
                    )
                    client.kill()
                    break
        info["submitted"] = submitted
        client.reap()
        if killer is not None:
            killer.cancel()
        return info

    # -- the kill campaign --------------------------------------------------
    for epoch in range(kills):
        if time.monotonic() >= deadline:
            violations.append(
                f"budget exhausted after {epoch} of {kills} kills"
            )
            break
        # mostly mid-serving kills; a seeded minority land almost
        # immediately, inside recovery/restore of the previous corpse.
        if rng.random() < 0.3:
            kill_after = rng.uniform(0.0, 0.3)
            during_recovery = True
        else:
            kill_after = rng.uniform(0.1, 1.0)
            during_recovery = False
        info = run_epoch(epoch, kill_after, during_recovery)
        info["torn"] = _maybe_tear(state_dir, rng, acked_all)
        epochs.append(info)

    # -- the clean final epoch + audit --------------------------------------
    final: dict = {"epoch": "final"}
    client = DaemonClient(state_dir)
    ready = client.wait_ready(timeout=REQUEST_TIMEOUT)
    session_reports: dict[str, dict] = {}
    if ready in (None, "hang"):
        violations.append("final epoch: daemon failed to recover cleanly")
    else:
        final["recovered"] = ready.get("recovered", [])
        for name in names:
            if name not in final["recovered"]:
                resp = client.request({
                    "op": "open", "name": name, "workers": workers,
                    "policy": {"kind": "block"},
                })
                if not (resp and resp is not None and resp != "hang"):
                    violations.append(
                        f"final epoch: open({name}) failed: {resp}"
                    )
        # drain: poll until every session is quiescent and stable
        stable = 0
        while stable < 3 and time.monotonic() < deadline + 15.0:
            resp = client.request({"op": "status"})
            if resp in (None, "hang") or not resp.get("ok"):
                violations.append(f"final epoch: status failed: {resp}")
                break
            rows = resp["sessions"]
            if all(rows[n]["backlog"] == 0 for n in names if n in rows):
                stable += 1
            else:
                stable = 0
            time.sleep(0.1)
        for name in names:
            resp = client.request({"op": "delivered", "name": name})
            if resp in (None, "hang") or not resp.get("ok"):
                violations.append(
                    f"final epoch: delivered({name}) failed: {resp}"
                )
                continue
            session_reports[name] = audit_session(
                name, acked[name], unacked[name],
                resp["values"], resp["book"], violations,
            )
        client.request({"op": "shutdown"})
        client.reap()
    epochs.append(final)

    report = {
        "seed": seed,
        "kills": kills,
        "sessions": sessions,
        "workers": workers,
        "budget": budget,
        "elapsed": round(time.monotonic() - t0, 3),
        "acked_total": sum(len(v) for v in acked.values()),
        "unacked_total": sum(len(v) for v in unacked.values()),
        "epochs": epochs,
        "session_reports": session_reports,
        "violations": violations,
        "ok": not violations,
    }
    if out:
        pathlib.Path(out).write_text(json.dumps(report, indent=2) + "\n")
    if cleanup is not None:
        cleanup.cleanup()
    return report


def audit_session(name: str, acked: list, unacked: set,
                  delivered: list, book: list,
                  violations: list[str]) -> dict:
    """The exactly-once audit for one session (values are globally unique,
    so multiplicity reduces to set arithmetic plus duplicate detection)."""
    report = {"acked": len(acked), "unacked": len(unacked),
              "delivered": len(delivered)}
    delivered_set = set(delivered)
    if len(delivered_set) != len(delivered):
        dupes = sorted({v for v in delivered if delivered.count(v) > 1})
        violations.append(
            f"{name}: duplicated deliveries: {dupes[:5]}"
        )
    lost = [v for v in acked if v not in delivered_set]
    if lost:
        violations.append(
            f"{name}: {len(lost)} acknowledged value(s) lost, "
            f"e.g. {lost[:5]}"
        )
    known = set(acked) | unacked
    alien = sorted(delivered_set - known)
    if alien:
        violations.append(
            f"{name}: delivered value(s) never admitted: {alien[:5]}"
        )
    seqs = [seq for seq, _ in book]
    if seqs != sorted(seqs) or len(seqs) != len(set(seqs)):
        violations.append(f"{name}: delivery book seqs not strictly "
                          f"increasing/unique")
    book_values = [value for _, value in book]
    if book_values != delivered:
        violations.append(
            f"{name}: durable book ({len(book_values)}) disagrees with "
            f"the visible delivered log ({len(delivered)})"
        )
    report["uncertain_landed"] = len(delivered_set & unacked)
    return report


def main(argv=None) -> int:
    import argparse

    parser = argparse.ArgumentParser(
        description="SIGKILL the durable coordinator daemon at seeded "
                    "points and audit exactly-once recovery")
    parser.add_argument("--state-dir", default=None,
                        help="state directory (default: a temp dir)")
    parser.add_argument("--kills", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--budget", type=float, default=90.0)
    parser.add_argument("--sessions", type=int, default=2)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    report = run_crash_test(
        args.state_dir, kills=args.kills, seed=args.seed,
        budget=args.budget, sessions=args.sessions,
        workers=args.workers, out=args.out,
    )
    print(json.dumps({k: report[k] for k in
                      ("seed", "kills", "elapsed", "acked_total",
                       "unacked_total", "violations", "ok")}, indent=2))
    return 0 if report["ok"] else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
