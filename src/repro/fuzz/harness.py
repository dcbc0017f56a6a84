"""Multi-mode execution harness — one script, every execution mode.

Runs a (program, script, schedule) triple under each entry of :data:`MODES`
— the cross product of engine concurrency (``global`` = one lock shared by
every region vs ``regions`` = one lock per region; either way a program's
regions are its connected components, so a two-chain program runs as two)
and composition strategy (``jit`` lazy product vs ``aot`` precomposed + hidden
+ precompiled plans) — plus, for channelable programs, the
:mod:`repro.runtime.channels` model, which shares none of the engine code.

**Single-threaded driving.**  Batches are submitted through the engine's
asynchronous :meth:`~repro.runtime.engine.CoordinatorEngine.post_send` /
``post_recv`` API: the posting thread itself drains the owning region, so
an entire multi-party synchronization fires inside one OS thread, in
submission order.  Combined with the script's uniquely-enabled-step
guarantee (:mod:`repro.fuzz.sim`) this removes the two nondeterminism
sources a blocking multi-thread driver would add — OS scheduling of
submissions and round-robin arbitration among competing steps — which is
what lets :func:`repro.fuzz.oracle.compare` require exact equality.

**Schedules.**  A checkpoint split tears the connector down mid-script and
restores the checkpoint into a freshly built one (fresh tracer and metrics
registry per segment; traces are concatenated, conservation is checked per
segment).  Floods post an extra send under an immediate-only ``shed_newest``
policy at points where the script proves no step could consume it, so every
mode must shed it — the dead-letter count is part of the compared surface.
"""

from __future__ import annotations

from repro.compiler.parametrized import compile_source
from repro.fuzz import oracle
from repro.fuzz.oracle import RunResult
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.overload import OverloadPolicy
from repro.runtime.ports import Inport, Outport
from repro.runtime.trace import TraceRecorder

#: Connector execution modes: mode name -> RuntimeConnector options, plus
#: the harness-level ``host`` key (not a connector option — strip it with
#: :func:`connector_opts`).  ``host="serve"`` runs serve's engine
#: configuration (as a ``FarmSession`` builds it) inside a
#: :class:`repro.serve.session.Session`: the lifecycle state machine owns
#: build/checkpoint/restore/close, and the
#: oracle's exact-equality comparison is the proof that hosting adds no
#: observable protocol behaviour.  ``host="durable"`` routes the schedule's
#: checkpoint through the on-disk snapshot format of
#: :mod:`repro.runtime.durable` — save to a temp state dir, recover with a
#: *fresh* store (a cold start in miniature), restore the recovered
#: checkpoint — so the trace-equivalence oracle covers the serialization
#: round-trip too.
MODES = {
    "global-jit": dict(concurrency="global", composition="jit",
                       compiled="off"),
    "global-aot": dict(concurrency="global", composition="aot",
                       compiled="off"),
    "regions-jit": dict(concurrency="regions", composition="jit",
                        compiled="off"),
    "regions-aot": dict(concurrency="regions", composition="aot",
                        compiled="off"),
    # The library's default configuration (regions, jit, compiled="auto"):
    # the connector every FarmSession builds, NPB run and Fig. 12 cell
    # measures.
    "serve-jit": dict(concurrency="regions", composition="jit",
                      compiled="auto", host="serve"),
    "durable": dict(concurrency="regions", composition="jit",
                    compiled="auto", host="durable"),
    # The compiled step tier (repro.compiler.steps) on the per-region and
    # the global locking.  The four modes above the serve pair pin
    # compiled="off" so they stay pure interpretive baselines — an injected
    # bug that doctors interpreter internals (e.g. the candidates list)
    # must remain oracle-visible there — while the compiled modes exercise
    # the generated step functions against every baseline simultaneously.
    "regions-compiled": dict(concurrency="regions", composition="jit",
                             compiled="auto"),
    "global-compiled": dict(concurrency="global", composition="aot",
                            compiled="auto"),
}


def connector_opts(mode: str) -> dict:
    """The :class:`RuntimeConnector` options of one mode, with harness-level
    keys (``host``) stripped — what callers that build connectors directly
    (e.g. :mod:`repro.fuzz.chaos`) must use instead of ``MODES[mode]``."""
    opts = dict(MODES[mode])
    opts.pop("host", None)
    return opts

#: The channels-model pseudo-mode (channelable programs only).
CHANNELS_MODE = "channels"

#: Immediate-only shedding for flood injections: an op that cannot complete
#: in its submission drain is shed at once, deterministically.
FLOOD_POLICY = OverloadPolicy("shed_newest", max_pending=0,
                              dead_letter_capacity=16)


def _protocol(program):
    proto = compile_source(program.dsl).protocol(program.protocol)
    bindings = proto.default_bindings(
        program.sizes if program.sizes is not None else {}
    )
    tails, heads = proto.boundary_vertices(bindings)
    return proto, list(tails), list(heads)


def run_connector_mode(program, script, schedule, mode: str, *,
                       metrics: bool = True, inject=None) -> RunResult:
    """Execute under one :data:`MODES` entry; never raises — failures land
    in ``RunResult.anomalies``."""
    proto, tails, heads = _protocol(program)
    hosted = MODES[mode].get("host") == "serve"
    durable_host = MODES[mode].get("host") == "durable"
    opts = connector_opts(mode)
    result = RunResult(mode=mode)
    streams = {v: [] for v in tails + heads}
    sheds: dict[str, int] = {}
    all_events = []

    def build():
        reg = MetricsRegistry() if metrics else None
        conn = proto.instantiate_connector(
            sizes=program.sizes,
            tracer=TraceRecorder(),
            metrics=reg,
            **opts,
        )
        conn.connect([Outport(v) for v in tails], [Inport(v) for v in heads])
        if inject is not None:
            inject(conn)
        return conn, reg

    def end_segment(conn, reg):
        all_events.extend(conn.tracer.events)
        if reg is not None:
            result.anomalies.extend(
                oracle.conservation_violations(reg, label=f"{mode}: ")
            )

    session = None
    if hosted:
        # The hosted path: the lifecycle state machine owns every
        # build/checkpoint/restore/close; the factory hands it segments'
        # registries through the box.
        from repro.serve.session import Session

        regbox: dict = {}

        def factory():
            conn, reg = build()
            regbox["reg"] = reg
            return conn

        session = Session(f"fuzz:{program.name}", factory=factory)

    conn = reg = None
    try:
        if hosted:
            session.open()
            conn, reg = session.connector, regbox["reg"]
        else:
            conn, reg = build()
        for i in range(len(script.batches) + 1):
            if schedule.checkpoint_at == i:
                try:
                    cp = (session.checkpoint() if hosted
                          else conn.checkpoint())
                except Exception as exc:
                    result.anomalies.append(
                        f"checkpoint before batch {i} failed: {exc!r}"
                    )
                else:
                    end_segment(conn, reg)
                    if hosted:
                        try:
                            session.reopen(cp)
                        except Exception as exc:
                            result.anomalies.append(
                                f"restore before batch {i} failed: {exc!r}"
                            )
                        conn, reg = session.connector, regbox["reg"]
                    else:
                        _quiet_close(conn)
                        conn, reg = build()
                        try:
                            if durable_host:
                                cp = _disk_roundtrip(cp)
                            conn.restore(cp)
                        except Exception as exc:
                            result.anomalies.append(
                                f"restore before batch {i} failed: {exc!r}"
                            )
            for bi, v in schedule.floods:
                if bi != i:
                    continue
                engine = conn.engine
                before = engine.dead.count(v)
                op = engine.post_send(v, f"flood@{i}:{v}",
                                      policy=FLOOD_POLICY)
                if engine.dead.count(v) != before + 1 or not op.done:
                    result.anomalies.append(
                        f"flood at batch {i} on {v} was not shed"
                    )
                else:
                    sheds[v] = sheds.get(v, 0) + 1
            if i == len(script.batches):
                break
            batch = script.batches[i]
            engine = conn.engine
            posted = []
            for sop in batch.ops:
                try:
                    if sop.kind == "send":
                        posted.append(engine.post_send(sop.vertex, sop.value))
                    else:
                        posted.append(engine.post_recv(sop.vertex))
                except Exception as exc:
                    posted.append(exc)
            for sop, op in zip(batch.ops, posted):
                if isinstance(op, Exception):
                    result.anomalies.append(
                        f"batch {i} {sop.kind}@{sop.vertex} raised {op!r}"
                    )
                    streams[sop.vertex].append(("raised", type(op).__name__))
                elif not op.done:
                    result.anomalies.append(
                        f"batch {i} {sop.kind}@{sop.vertex} left incomplete"
                    )
                    streams[sop.vertex].append(("incomplete", None))
                elif op.error is not None:
                    result.anomalies.append(
                        f"batch {i} {sop.kind}@{sop.vertex} failed: "
                        f"{op.error!r}"
                    )
                    streams[sop.vertex].append(
                        ("failed", type(op.error).__name__)
                    )
                else:
                    value = op.value if sop.kind == "recv" else sop.value
                    streams[sop.vertex].append((sop.kind, value))
        end_segment(conn, reg)
        buffered = []
        for values in conn.engine.buffers.snapshot().values():
            buffered.extend(values)
        result.buffers = sorted(buffered, key=repr)
    except Exception as exc:  # harness bug or engine crash: surface, not hide
        result.anomalies.append(f"run aborted: {exc!r}")
    finally:
        if session is not None:
            session.close()
        elif conn is not None:
            _quiet_close(conn)
    result.ports = streams
    result.sync_sets = oracle.normalize_events(all_events, tails + heads)
    result.sheds = sheds
    return result


def run_channels(program, script, schedule) -> RunResult:
    """Execute a channelable program against :mod:`repro.runtime.channels`.

    The schedule's checkpoint split is a no-op here (channels have no
    protocol state beyond the FIFO itself) and floods are never scheduled
    on channelable programs (:func:`repro.fuzz.sim.make_schedule`)."""
    from repro.runtime.channels import Channel, ChannelInport, ChannelOutport

    proto, tails, heads = _protocol(program)
    result = RunResult(mode=CHANNELS_MODE)
    streams = {v: [] for v in tails + heads}
    tail, head = tails[0], heads[0]
    reg = MetricsRegistry()
    out, inp = ChannelOutport(tail), ChannelInport(head)
    Channel(capacity=program.channel_capacity, metrics=reg,
            name=program.name).connect(out, inp)
    occupancy = 0
    capacity = program.channel_capacity
    for i, batch in enumerate(script.batches):
        pending = list(batch.ops)
        while pending:
            # Attempt only feasible operations (occupancy-tracked), so a
            # blocked op never burns a counted-but-withdrawn submission —
            # the conservation check below must stay exact.
            sop = next(
                (o for o in pending
                 if (occupancy < capacity if o.kind == "send"
                     else occupancy > 0)),
                None,
            )
            if sop is None:
                result.anomalies.append(
                    f"channel model stuck in batch {i}: "
                    + ", ".join(f"{o.kind}@{o.vertex}" for o in pending)
                )
                break
            if sop.kind == "send":
                if not out.try_send(sop.value):
                    result.anomalies.append(
                        f"channel refused feasible send in batch {i}"
                    )
                    break
                occupancy += 1
                streams[tail].append(("send", sop.value))
            else:
                ok, value = inp.try_recv()
                if not ok:
                    result.anomalies.append(
                        f"channel refused feasible recv in batch {i}"
                    )
                    break
                occupancy -= 1
                streams[head].append(("recv", value))
            pending.remove(sop)
        if result.anomalies:
            break
    result.anomalies.extend(
        oracle.conservation_violations(reg, label="channels: ")
    )
    result.ports = streams
    return result


def run_all(program, script, schedule, *, inject=None,
            inject_mode: str = ""):
    """Run every applicable mode; returns ``(results, divergences)``.

    ``inject`` (a callable taking the connector, see
    :mod:`repro.fuzz.inject`) is applied only in ``inject_mode`` — by
    default the injection's own ``mode``, else ``regions-jit`` — the
    other modes stay clean, so an injected bug *must* surface as a
    cross-mode divergence if the oracle has the power to see it."""
    inject_mode = inject_mode or getattr(inject, "mode", "regions-jit")
    results = []
    for mode in MODES:
        results.append(run_connector_mode(
            program, script, schedule, mode,
            inject=inject if mode == inject_mode else None,
        ))
    if program.channelable:
        results.append(run_channels(program, script, schedule))
    return results, oracle.compare(results)


def _disk_roundtrip(cp):
    """Checkpoint → on-disk snapshot format → *fresh-store* recovery, the
    way a cold-started process would read it (the ``durable`` mode's hop at
    the checkpoint split).  Raises if the round-trip is not the identity —
    the restore then fails loudly and the oracle flags the mode."""
    import tempfile

    from repro.runtime.durable import DurableStore

    with tempfile.TemporaryDirectory(prefix="repro-fuzz-durable-") as td:
        store = DurableStore(td).session("fuzz")
        store.save_snapshot(cp, seq=0)
        store.close()
        recovered = DurableStore(td).session("fuzz").recover().checkpoint
    if recovered != cp:
        raise AssertionError(
            "durable snapshot round-trip altered the checkpoint"
        )
    return recovered


def _quiet_close(conn) -> None:
    try:
        conn.close()
    except Exception:
        pass
