"""The coordinator daemon — a JSON-lines control loop over stdin/stdout.

``python -m repro serve --daemon --state-dir DIR`` runs a
:class:`~repro.serve.service.CoordinatorService` as a child process a
supervisor (or the crash harness, :mod:`repro.serve.crashtest`) can drive
programmatically: one JSON request per stdin line, one JSON response per
stdout line, strictly in order.  The single unsolicited line is the first:

.. code-block:: json

    {"event": "ready", "recovered": ["sessions", "found", "on", "disk"]}

emitted *after* cold-start recovery completes, so a client that waits for
``ready`` observes every previously-durable session already serving.

Operations (``{"op": ..., ...}`` → ``{"ok": true, ...}`` or
``{"ok": false, "error": "<TypeName>", "message": ...}``):

* ``open`` — ``name``, optional ``tenant``/``workers``/``service_time``
  and ``policy`` (an :class:`~repro.runtime.overload.OverloadPolicy`
  kwargs object, e.g. ``{"kind": "block"}``).
* ``submit`` — ``name``, ``value``; responds with the admission
  ``result`` (``ok`` | ``timeout``).  The response is the
  *acknowledgement*: once a client reads ``result: ok``, the value is
  journaled and must survive any crash (the exactly-once contract the
  crash harness audits).
* ``checkpoint`` — ``name``; commits one durable snapshot generation.
* ``delivered`` — ``name``; the session's delivery book so far.
* ``status`` — the service's per-session status table.
* ``close`` — ``name``; drain and close one session.
* ``shutdown`` — close everything cleanly and exit 0.

The daemon is deliberately single-threaded at the control surface (the
sessions' worker pools still run concurrently underneath): ordering
between a submit acknowledgement and a later status/delivered read is
what the harness's audit depends on.
"""

from __future__ import annotations

import json
import sys

from repro.runtime.errors import ReproRuntimeError
from repro.runtime.overload import OverloadPolicy
from repro.serve.service import CoordinatorService


def _ok(**fields) -> dict:
    out = {"ok": True}
    out.update(fields)
    return out


def _err(exc: BaseException) -> dict:
    return {"ok": False, "error": type(exc).__name__, "message": str(exc)}


def handle(service: CoordinatorService, request: dict) -> tuple[dict, bool]:
    """One request → (response, keep_running)."""
    op = request.get("op")
    try:
        if op == "open":
            policy = None
            if request.get("policy"):
                policy = OverloadPolicy(**request["policy"])
            session = service.open_session(
                request["name"],
                request.get("tenant", "default"),
                workers=request.get("workers"),
                policy=policy,
                service_time=request.get("service_time", 0.0),
            )
            return _ok(name=session.name, workers=session.workers), True
        if op == "submit":
            result = service.submit(
                request["name"], request["value"],
                timeout=request.get("timeout"),
            )
            return _ok(result=result), True
        if op == "checkpoint":
            service.durable_checkpoint(request["name"])
            return _ok(), True
        if op == "delivered":
            session = service.session(request["name"])
            book = []
            if session.durability is not None:
                book = [[seq, value] for seq, value
                        in session.durability.book()]
            return _ok(values=list(session.delivered), book=book), True
        if op == "status":
            return _ok(sessions=service.status()), True
        if op == "close":
            service.close_session(request["name"])
            return _ok(), True
        if op == "shutdown":
            return _ok(), False
        return {"ok": False, "error": "BadRequest",
                "message": f"unknown op {op!r}"}, True
    except (ReproRuntimeError, KeyError, TypeError, ValueError) as exc:
        return _err(exc), True


def run_daemon(state_dir, *, checkpoint_interval: float | None = None,
               fsync: bool = False,
               stdin=None, stdout=None) -> int:
    """The daemon loop; returns the process exit code."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    service = CoordinatorService(
        state_dir=state_dir,
        auto_checkpoint=checkpoint_interval,
        fsync=fsync,
    )
    recovered = service.recover_sessions()
    print(json.dumps({"event": "ready", "recovered": recovered}),
          file=stdout, flush=True)
    try:
        for line in stdin:
            line = line.strip()
            if not line:
                continue
            try:
                request = json.loads(line)
            except ValueError as exc:
                response, running = _err(exc), True
            else:
                response, running = handle(service, request)
            print(json.dumps(response), file=stdout, flush=True)
            if not running:
                break
    finally:
        service.close()
    return 0
