"""Chaos layer — threaded parties, seeded faults, order-insensitive oracles.

The deterministic harness (:mod:`repro.fuzz.harness`) buys exact cross-mode
comparison by only generating uniquely-enabled schedules — which means it
never exercises genuine races: competing senders, blocking parties, fault
recovery.  This module covers that half with real OS threads and
:class:`~repro.runtime.faults.FaultPlan` injections (delay,
crash-then-recover, flood), at the price of a weaker oracle:

* the *expected* value streams are computed analytically by replaying the
  fault plan's per-port spec table (a crashed attempt consumes an op slot
  and resends the same value at the next; a flood prepends ``factor``
  copies);
* connectors whose output order is scheduling-dependent (the merger family)
  are checked as per-head **multisets**; confluent ones (replicators,
  fifos, barriers, alternators) as **exact sequences**;
* every party thread must terminate cleanly within its timeout — a hang,
  deadlock false-positive, or unexpected error is a failure regardless of
  values.

Each scenario runs under every unhosted connector mode; because the outcome
(under these oracles) is mode-independent, any disagreement is reported
exactly like a harness divergence.
"""

from __future__ import annotations

import random
import threading

from repro.connectors import library
from repro.fuzz.harness import MODES, connector_opts
from repro.runtime.faults import FaultPlan, InjectedFault
from repro.runtime.ports import Inport, Outport

#: Single-stage scenarios: family name -> (oracle kind, flood-safe).
#: ``sequence`` heads receive a deterministic stream; ``multiset`` heads a
#: deterministic bag; ``join`` scenarios have no heads (clean-join only).
#: Flood faults change per-tail counts, so they are only safe where the
#: connector never synchronizes tails with unequal progress.
FAMILIES = {
    "Merger": ("multiset", True),
    "EarlyAsyncMerger": ("multiset", True),
    "LateAsyncMerger": ("multiset", True),
    "Replicator": ("sequence", True),
    "EarlyAsyncReplicator": ("sequence", True),
    "LateAsyncReplicator": ("sequence", True),
    "FifoChain": ("sequence", True),
    "Barrier": ("sequence", False),
    "Alternator": ("sequence", False),
    "Sequencer": ("join", False),
}

TIMEOUT = 20.0  # generous: a slow machine must not fake a liveness failure


def expected_stream(values, plan: FaultPlan, port_name: str) -> list:
    """The values ``port_name`` actually delivers when a party sends
    ``values`` through ``plan`` with the retry-on-recoverable-crash loop of
    :func:`_sender` — the analytic replay of the fault table."""
    out: list = []
    op = 0
    i = 0
    while i < len(values):
        op += 1
        spec = plan._lookup(port_name, op)
        if spec is not None and spec.kind == "crash_then_recover":
            continue  # the attempt died before the send; retry = next op
        if spec is not None and spec.kind == "flood":
            out.extend([values[i]] * spec.factor)
        out.append(values[i])
        i += 1
    return out


def _sender(port, values, errors):
    i = 0
    try:
        while i < len(values):
            try:
                port.send(values[i], timeout=TIMEOUT)
            except InjectedFault:
                continue  # recoverable: the same value goes out again
            i += 1
    except Exception as exc:
        errors.append(f"sender {port.name}: {exc!r}")


def _receiver(port, count, sink, errors):
    try:
        for _ in range(count):
            sink.append(port.recv(timeout=TIMEOUT))
    except Exception as exc:
        errors.append(f"receiver {port.name}: {exc!r}")


def run_scenario(cname: str, n: int, seed: int, mode: str,
                 *, values_per_tail: int = 4) -> list[str]:
    """One chaos run; returns failure descriptions (empty = clean)."""
    oracle_kind, flood_ok = FAMILIES[cname]
    rng = random.Random(f"chaos:{seed}:{cname}:{n}")
    conn = library.connector(cname, n, **connector_opts(mode))
    tails = list(conn.tail_vertices)
    heads = list(conn.head_vertices)
    outs = [Outport(v) for v in tails]
    ins = [Inport(v) for v in heads]
    conn.connect(outs, ins)
    kinds = ("delay", "crash_then_recover") + (("flood",) if flood_ok else ())
    plan = FaultPlan.random(
        rng.randint(0, 2**30), [p.name for p in outs],
        n_faults=rng.randint(1, 3), kinds=kinds,
        max_op=values_per_tail,
    )
    sent = {
        v: [f"{v}.{k}" for k in range(values_per_tail)] for v in tails
    }
    expect = {v: expected_stream(sent[v], plan, v) for v in tails}
    if oracle_kind == "multiset":
        head_expect = {heads[0]: sorted(
            x for v in tails for x in expect[v]
        )} if heads else {}
    elif cname == "Alternator":
        # Round-robin interleave: t1[0], t2[0], ..., tn[0], t1[1], ...
        rounds = max(len(s) for s in expect.values())
        inter = [expect[v][k] for k in range(rounds) for v in tails
                 if k < len(expect[v])]
        head_expect = {heads[0]: inter}
    elif cname in ("Replicator", "EarlyAsyncReplicator",
                   "LateAsyncReplicator"):
        head_expect = {h: list(expect[tails[0]]) for h in heads}
    elif cname == "FifoChain":
        head_expect = {heads[0]: list(expect[tails[0]])}
    elif cname == "Barrier":
        head_expect = {h: list(expect[t]) for t, h in zip(tails, heads)}
    else:  # join-only (Sequencer)
        head_expect = {}

    errors: list[str] = []
    received: dict[str, list] = {h: [] for h in heads}
    threads = [
        threading.Thread(
            target=_sender, args=(plan.wrap(p), sent[v], errors), daemon=True
        )
        for p, v in zip(outs, tails)
    ] + [
        threading.Thread(
            target=_receiver,
            args=(p, len(head_expect.get(v, ())), received[v], errors),
            daemon=True,
        )
        for p, v in zip(ins, heads)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT + 5.0)
        if t.is_alive():
            errors.append(f"[{mode}] {cname}({n}) seed {seed}: thread hung")
            break
    failures = [f"[{mode}] {cname}({n}) seed {seed}: {e}" for e in errors]
    if not errors:
        for h in heads:
            got = received[h]
            want = head_expect.get(h, [])
            if oracle_kind == "multiset":
                got = sorted(got)
            if got != want:
                failures.append(
                    f"[{mode}] {cname}({n}) seed {seed}: head {h} got "
                    f"{got!r}, expected {want!r} "
                    f"(plan {plan!r})"
                )
    try:
        conn.close()
    except Exception:
        pass
    return failures


def run_chaos(seed: int, *, modes=None, values_per_tail: int = 4) -> list[str]:
    """One seeded chaos scenario across modes (scenario choice is part of
    the seed, so a seed range sweeps families and arities)."""
    rng = random.Random(f"chaospick:{seed}")
    cname = rng.choice(sorted(FAMILIES))
    n = rng.choice((2, 3))
    failures: list[str] = []
    # Hosted modes strip to the same connector options as their unhosted
    # twin (chaos drives ports directly, not sessions), so running them
    # here would only duplicate a mode already covered.
    default_modes = [m for m in MODES if "host" not in MODES[m]]
    for mode in (modes or default_modes):
        failures.extend(
            run_scenario(cname, n, seed, mode,
                         values_per_tail=values_per_tail)
        )
    return failures
